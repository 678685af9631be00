"""CRLSet construction pipeline.

Implements the documented rules the paper lists in §7.1:

1. the CRLSet file is capped at 250 KB;
2. it is populated from an internal list of crawled CRLs, fetched on the
   order of hours (we give each covered CRL a deterministic crawl lag);
3. a CRL with too many entries is dropped;
4. only revocations with a CRLSet-eligible reason code are included.

Plus the phenomena the paper observes empirically: a subset of covered
CRLs is only partially reflected (Fig 7's tail), a two-week update gap in
Nov-Dec 2014 (Fig 9), and the May 2014 removal of a large "VeriSign EV"
parent that shrank the CRLSet by a quarter (Fig 8).

The builder sweeps the study window from the first CRLSet build to the
end of the measurement and records, per entry, when it first appeared in
and was removed from the CRLSet -- the raw material for Figures 8, 9,
and 10.

The sweep is a set of vector operations over the covered CRLs' entry
columns (:attr:`repro.scan.crl_model.EcosystemCrl.entries`), not a
day-by-day walk.  An entry sits on its crawled CRL over the day range ``[add,
remove)``, with ``add = max(revoked + lag, first day)`` and ``remove =
expiry + 1``, so on a build day it is *active* iff that day falls in the
range; binning each range's first and last build day per CRL and taking
prefix sums gives every CRL's active count and CRLSet bytes on every
build day.  A CRL is included on a build day when its parent has not
been removed, its crawled count is within the per-CRL maximum, and it
lies in the longest prefix, by ascending active count, whose bytes fit
the cap.  An entry is a member on a build day iff it is active and its
CRL is included, so its first appearance is the first included build
day in its range and its removal the build day after the last one.
``tests/crlset/reference_sweep.py`` keeps the day-by-day set sweep,
and ``tests/crlset/test_builder_analyses.py`` checks every field
against it.
"""

from __future__ import annotations

import datetime
import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.crlset.format import CrlSetSnapshot
from repro.revocation.reason import ReasonCode, is_crlset_eligible
from repro.scan.calibration import Calibration
from repro.scan.corpus import EntryColumns
from repro.scan.ecosystem import Ecosystem

__all__ = ["CrlSetBuilder", "CrlSetHistory", "EntryLifecycles"]

#: CRLSet bytes charged once per CRL: the parent hash and the count.
_CRL_BYTES = 36

#: ``is_crlset_eligible`` by reason column value + 1 (-1 = no reason).
_ELIGIBLE_REASON = np.array(
    [is_crlset_eligible(None)]
    + [
        code in set(ReasonCode) and is_crlset_eligible(ReasonCode(code))
        for code in range(max(ReasonCode) + 1)
    ]
)


@dataclass(frozen=True, eq=False)
class EntryLifecycles:
    """Every covered CRL entry's CRLSet lifecycle, as columns in entry
    order (covered CRLs in ecosystem order, entries in CRL order).

    Day columns hold proleptic ordinals, 0 for "never".
    """

    #: the covered CRLs' URLs and parent keys; ``crl`` indexes both.
    urls: tuple[str, ...]
    parents: tuple[bytes, ...]
    crl: np.ndarray
    #: the entries' codec columns (serial, revoked, reason, expiry, cert).
    columns: EntryColumns
    #: the reason is CRLSet-eligible (rule 4), whatever the builder's filter.
    reason_eligible: np.ndarray
    #: the entry passes the builder's reason filter.
    eligible: np.ndarray
    in_partial_subset: np.ndarray
    first_appeared: np.ndarray
    removed_at: np.ndarray

    def keys(self, rows: np.ndarray) -> list[tuple[bytes, int]]:
        """``(parent, serial)`` of the entries at ``rows``, in row order."""
        parents = self.parents
        return [
            (parents[crl], serial)
            for crl, serial in zip(
                self.crl[rows].tolist(), self.columns.serial_numbers(rows)
            )
        ]


@dataclass
class CrlSetHistory:
    """Everything one builder sweep produced."""

    daily_entry_counts: dict[datetime.date, int]
    daily_additions: dict[datetime.date, int]
    daily_removals: dict[datetime.date, int]
    entries: EntryLifecycles = field(repr=False)
    final_snapshot: CrlSetSnapshot
    covered_urls: frozenset[str]
    #: CRLs dropped for exceeding the entry threshold (rule 3).
    dropped_urls: frozenset[str]
    parents_ever: frozenset[bytes]


class CrlSetBuilder:
    """Builds the daily CRLSet series for an ecosystem."""

    def __init__(
        self,
        ecosystem: Ecosystem,
        removal_brand: str = "VerisignEV",
        blocked_spki_count: int = 11,
        apply_reason_filter: bool = True,
        max_entries_override: int | None = None,
        size_cap_override: int | None = None,
    ) -> None:
        """The three ``*_override``/``apply_*`` knobs exist for the rule
        ablations (``tests/crlset/test_builder_analyses.py``): they
        disable, respectively, the reason-code filter (rule 4), the
        per-CRL entry drop threshold (rule 3), and the 250 KB cap
        (rule 1)."""
        self.ecosystem = ecosystem
        self.calibration: Calibration = ecosystem.calibration
        self.removal_brand = removal_brand
        self.apply_reason_filter = apply_reason_filter
        self.max_entries = (
            max_entries_override
            if max_entries_override is not None
            else self.calibration.crlset_max_entries_per_crl
        )
        self.size_cap = (
            size_cap_override
            if size_cap_override is not None
            else self.calibration.crlset_size_cap_bytes
        )
        self._blocked_spkis = frozenset(
            hashlib.sha256(f"blocked-spki-{i}".encode()).digest()
            for i in range(blocked_spki_count)
        )

    # -- deterministic per-CRL attributes ---------------------------------

    def _crawl_lag_days(self, url: str) -> int:
        low, high = self.calibration.crlset_crawl_period_hours
        digest = hashlib.sha256(url.encode()).digest()
        hours = low + digest[0] % (high - low + 1)
        return max(0, (hours + 12) // 24)  # crawled within `hours`

    def _partial_fraction(self, url: str) -> float:
        cal = self.calibration
        digest = hashlib.sha256(b"partial" + url.encode()).digest()
        if digest[0] / 255.0 >= cal.crlset_partial_coverage_fraction:
            return 1.0
        low, high = cal.crlset_partial_coverage_range
        return low + (digest[1] / 255.0) * (high - low)

    # -- the sweep ----------------------------------------------------------

    def run(self) -> CrlSetHistory:
        """Sweep the build window, from the first CRLSet build to the end
        of the measurement."""
        cal = self.calibration
        first = cal.crlset_build_start.toordinal()
        last = cal.measurement_end.toordinal()
        crls = [crl for crl in self.ecosystem.crls if crl.covered]
        n_crls = len(crls)
        columns = EntryColumns.concat([crl.entries for crl in crls])
        crl = np.repeat(
            np.arange(n_crls), np.array([len(c.entries) for c in crls], np.int64)
        )
        _check_unique_keys(crls, crl, columns)

        # -- per entry: eligibility, subset, CRLSet bytes, listed range --
        reason_eligible = _ELIGIBLE_REASON[columns.reason.astype(np.int64) + 1]
        eligible = (
            reason_eligible if self.apply_reason_filter else np.ones(len(crl), bool)
        )
        in_subset = self._partial_subsets(
            crl, columns, [self._partial_fraction(c.url) for c in crls]
        )
        significant, _ = columns.serial_significance()
        size = 1 + np.maximum(significant, 1)
        lags = np.array([self._crawl_lag_days(c.url) for c in crls], np.int64)
        add = np.maximum(columns.revoked + lags[crl], first)
        remove = columns.expiry.astype(np.int64) + 1
        listed = eligible & in_subset & (add <= last) & (remove > add)

        # -- build days, and each entry's active build days [lo, hi) --
        day_ordinals = np.arange(first, last + 1)
        is_build = (day_ordinals < cal.crlset_gap_start.toordinal()) | (
            day_ordinals >= cal.crlset_gap_end.toordinal()
        )
        builds = day_ordinals[is_build]
        n_builds = len(builds)
        lo = np.where(listed, np.searchsorted(builds, add), n_builds)
        hi = np.where(listed, np.searchsorted(builds, remove), n_builds)
        spans = lo < hi

        # -- per (CRL, build day): entries starting and ending there, and
        # the active count, CRLSet bytes and crawled count --
        cells = n_crls * (n_builds + 1)
        start_cell = crl[spans] * (n_builds + 1) + lo[spans]
        end_cell = crl[spans] * (n_builds + 1) + hi[spans]

        def grid(cell: np.ndarray, weights=None) -> np.ndarray:
            return np.bincount(cell, weights, cells).reshape(n_crls, n_builds + 1)

        started, ended = grid(start_cell), grid(end_cell)
        active = (started - ended).cumsum(axis=1)[:, :n_builds]
        weights = size[spans].astype(np.float64)  # sums stay exact integers
        crl_bytes = _CRL_BYTES + (
            (grid(start_cell, weights) - grid(end_cell, weights))
            .cumsum(axis=1)[:, :n_builds]
            .astype(np.int64)
        )
        crawled = active.copy()
        for index, c in enumerate(crls):
            if c.hidden is not None:
                crawled[index] += c.hidden.counts_at(builds)

        # -- inclusion on each build day (rules 1 and 3, parent removal) --
        removed = np.array([c.brand == self.removal_brand for c in crls], bool)
        after_removal = builds >= cal.crlset_parent_removal_date.toordinal()
        candidate = (crawled <= self.max_entries) & ~np.outer(removed, after_removal)
        included = self._included(active, crl_bytes, candidate)

        # -- daily series from per-CRL transitions between build days --
        before = np.zeros_like(included)
        before[:, 1:] = included[:, :-1]
        active_before = np.zeros_like(active)
        active_before[:, 1:] = active[:, :-1]
        stays = included & before
        additions = np.where(stays, started[:, :n_builds], 0) + np.where(
            included & ~before, active, 0
        )
        removals = np.where(stays, ended[:, :n_builds], 0) + np.where(
            before & ~included, active_before, 0
        )
        daily_counts, daily_additions, daily_removals = _daily_series(
            day_ordinals,
            is_build,
            np.where(included, active, 0).sum(axis=0),
            additions.sum(axis=0),
            removals.sum(axis=0),
        )

        # -- per entry: first and last member build day --
        first_k, last_k = _member_range(included, crl, lo, hi)
        member = first_k < hi
        build_or_never = np.append(builds, 0)
        first_appeared = np.where(member, build_or_never[first_k], 0)
        # The build day after the last member one; never after the last.
        removed_at = np.where(member, build_or_never[last_k + 1], 0)
        entries = EntryLifecycles(
            urls=tuple(c.url for c in crls),
            parents=tuple(c.issuer_key_hash for c in crls),
            crl=crl,
            columns=columns,
            reason_eligible=reason_eligible,
            eligible=eligible,
            in_partial_subset=in_subset,
            first_appeared=first_appeared,
            removed_at=removed_at,
        )

        final_parents: dict[bytes, set[int]] = {}
        for parent, serial in entries.keys(np.flatnonzero(member & (removed_at == 0))):
            final_parents.setdefault(parent, set()).add(serial)
        final_snapshot = CrlSetSnapshot(
            sequence=len(daily_counts),
            date=cal.measurement_end,
            parents={p: frozenset(s) for p, s in final_parents.items()},
            blocked_spkis=self._blocked_spkis,
        )
        dropped = (crawled > self.max_entries).any(axis=1).tolist()
        ever = included.any(axis=1).tolist()
        return CrlSetHistory(
            daily_entry_counts=daily_counts,
            daily_additions=daily_additions,
            daily_removals=daily_removals,
            entries=entries,
            final_snapshot=final_snapshot,
            covered_urls=frozenset(c.url for c in crls),
            dropped_urls=frozenset(c.url for c, d in zip(crls, dropped) if d),
            parents_ever=frozenset(
                c.issuer_key_hash for c, e in zip(crls, ever) if e
            ),
        )

    @staticmethod
    def _partial_subsets(
        crl: np.ndarray, columns: EntryColumns, fractions: list[float]
    ) -> np.ndarray:
        """Whether each entry is in its CRL's reflected subset: always on
        a fully reflected CRL, else by a hash of the serial's minimal
        big-endian bytes."""
        fraction = np.array(fractions)[crl]
        partial = np.flatnonzero(fraction < 1.0)
        in_subset = np.ones(len(crl), bool)
        if len(partial):
            significant, _ = columns.serial_significance(partial)
            lengths = np.maximum(significant, 1).tolist()
            blob = columns.serial[partial].tobytes()
            width = columns.serial.shape[1]
            sha256 = hashlib.sha256
            first_bytes = [
                sha256(b"subset" + blob[end - length : end]).digest()[0]
                for end, length in zip(range(width, len(blob) + 1, width), lengths)
            ]
            in_subset[partial] = np.array(first_bytes) / 256.0 < fraction[partial]
        return in_subset

    def _included(
        self, active: np.ndarray, crl_bytes: np.ndarray, candidate: np.ndarray
    ) -> np.ndarray:
        """``(CRL, build day)`` inclusion: the candidates, stably sorted
        by active count, up to the longest prefix whose bytes fit the
        cap less the header -- what dropping the candidate with the most
        entries until the rest fit keeps."""
        n_crls = active.shape[0]
        key = np.where(candidate, active, np.iinfo(np.int64).max).T
        order = key.argsort(axis=1, kind="stable")
        in_order = np.take_along_axis(np.where(candidate, crl_bytes, 0).T, order, axis=1)
        fits = in_order.cumsum(axis=1) <= self.size_cap - 64  # header overhead
        fits &= np.arange(n_crls)[None, :] < candidate.sum(axis=0)[:, None]
        kept = fits.sum(axis=1)
        included = np.zeros_like(fits)
        np.put_along_axis(
            included, order, np.arange(n_crls)[None, :] < kept[:, None], axis=1
        )
        return np.ascontiguousarray(included.T)


def _member_range(
    included: np.ndarray, crl: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per entry: the first build day in ``[lo, ...)`` its CRL is
    included on (``n_builds`` if none), and the last one before ``hi``
    (-1 if none)."""
    n_crls, n_builds = included.shape
    days = np.arange(n_builds)
    # next_included[c, k]: first included build day >= k; prev_included[c, k]:
    # last included build day < k.
    next_included = np.full((n_crls, n_builds + 1), n_builds)
    next_included[:, :n_builds] = np.minimum.accumulate(
        np.where(included, days, n_builds)[:, ::-1], axis=1
    )[:, ::-1]
    prev_included = np.full((n_crls, n_builds + 1), -1)
    prev_included[:, 1:] = np.maximum.accumulate(
        np.where(included, days, -1), axis=1
    )
    return next_included[crl, lo], prev_included[crl, hi]


def _daily_series(
    day_ordinals: np.ndarray,
    is_build: np.ndarray,
    members: np.ndarray,
    additions: np.ndarray,
    removals: np.ndarray,
) -> tuple[dict, dict, dict]:
    """Per-day member counts, additions and removals: a build day's own
    values; a gap day carries the last build day's count and changes
    nothing."""
    build_index = np.cumsum(is_build) - 1  # last build day at or before each day
    carried = np.concatenate(([0], members))[build_index + 1]
    zero = np.zeros(len(day_ordinals), np.int64)
    daily_additions, daily_removals = zero.copy(), zero.copy()
    daily_additions[is_build] = additions
    daily_removals[is_build] = removals
    days = [datetime.date.fromordinal(ordinal) for ordinal in day_ordinals.tolist()]
    return (
        dict(zip(days, carried.tolist())),
        dict(zip(days, daily_additions.tolist())),
        dict(zip(days, daily_removals.tolist())),
    )


def _check_unique_keys(crls, crl: np.ndarray, columns: EntryColumns) -> None:
    """Raise ``ValueError`` if two covered entries share a CRLSet key
    ``(parent, serial)``: the sweep follows each key through one listing.

    Sorts one 64-bit fingerprint per key and compares exactly only the
    keys whose fingerprints collide.
    """
    ids: dict[bytes, int] = {}
    parent_of_crl = np.array(
        [ids.setdefault(c.issuer_key_hash, len(ids)) for c in crls], np.uint64
    )
    parent = parent_of_crl[crl]
    padded = np.zeros((len(crl), 24), np.uint8)
    padded[:, 24 - columns.serial.shape[1] :] = columns.serial
    fingerprint = parent * np.uint64(0x9E3779B97F4A7C15)
    for word in padded.view(">u8").astype(np.uint64).T:
        fingerprint ^= word
        fingerprint *= np.uint64(0xBF58476D1CE4E5B9)
        fingerprint ^= fingerprint >> np.uint64(31)
    order = fingerprint.argsort()
    collide = np.flatnonzero(fingerprint[order[1:]] == fingerprint[order[:-1]])
    if not len(collide):
        return
    seen: dict[tuple[int, bytes], int] = {}
    for row in np.union1d(order[collide], order[collide + 1]).tolist():
        key = (int(parent[row]), columns.serial[row].tobytes())
        if key in seen:
            raise ValueError(
                f"entry {int.from_bytes(key[1], 'big')} on {crls[crl[row]].url} "
                f"repeats the CRLSet key of an entry on {crls[crl[seen[key]]].url}; "
                "the sweep needs one listing per (parent, serial)"
            )
        seen[key] = row
