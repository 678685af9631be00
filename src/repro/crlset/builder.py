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

The builder runs one chronological sweep over the study window and
records, per entry, when it first appeared in and was removed from the
CRLSet -- the raw material for Figures 8, 9, and 10.

The sweep synchronises membership incrementally: on build days where the
set of included CRLs is unchanged, only the entries whose underlying
crawled state changed since the last build are reconsidered, instead of
re-unioning every included CRL's active set.  ``run(incremental=False)``
keeps the original full-rebuild path as a reference; the two are
asserted identical in ``tests/crlset/test_builder_analyses.py``.
"""

from __future__ import annotations

import datetime
import hashlib
from dataclasses import dataclass

from repro.crlset.format import CrlSetSnapshot, serial_length, serial_to_bytes
from repro.revocation.reason import is_crlset_eligible
from repro.scan.bulk import gc_paused
from repro.scan.calibration import Calibration
from repro.scan.crawl_index import CrawlIndex
from repro.scan.crl_model import EcosystemCrl
from repro.scan.ecosystem import Ecosystem

__all__ = ["CrlSetBuilder", "CrlSetHistory", "EntryHistory"]

_DAY = datetime.timedelta(days=1)


@dataclass(slots=True)
class EntryHistory:
    """CRLSet lifecycle of one revocation entry."""

    parent: bytes
    serial: int
    crl_url: str
    revoked_at: datetime.date
    cert_not_after: datetime.date
    eligible: bool
    in_partial_subset: bool
    first_appeared: datetime.date | None = None
    removed_at: datetime.date | None = None

    @property
    def days_to_appear(self) -> int | None:
        if self.first_appeared is None:
            return None
        return (self.first_appeared - self.revoked_at).days

    @property
    def removed_before_expiry_days(self) -> int | None:
        """Days between CRLSet removal and certificate expiry (Fig 10)."""
        if self.removed_at is None or self.removed_at >= self.cert_not_after:
            return None
        return (self.cert_not_after - self.removed_at).days


@dataclass
class CrlSetHistory:
    """Everything one builder sweep produced."""

    daily_entry_counts: dict[datetime.date, int]
    daily_additions: dict[datetime.date, int]
    daily_removals: dict[datetime.date, int]
    entry_histories: list[EntryHistory]
    final_snapshot: CrlSetSnapshot
    covered_urls: frozenset[str]
    #: CRLs dropped for exceeding the entry threshold (rule 3).
    dropped_urls: frozenset[str]
    parents_ever: frozenset[bytes]

    def snapshot_count_on(self, day: datetime.date) -> int:
        return self.daily_entry_counts.get(day, 0)


class _CrlTrack:
    """Builder-internal per-CRL state."""

    __slots__ = (
        "crl",
        "lag_days",
        "partial_fraction",
        "active",
        "byte_size",
        "included",
        "parent_removed",
    )

    def __init__(self, crl: EcosystemCrl, lag_days: int, partial_fraction: float):
        self.crl = crl
        self.lag_days = lag_days
        self.partial_fraction = partial_fraction
        #: entry keys currently listed on the (lagged) crawled CRL.
        self.active: set[tuple[bytes, int]] = set()
        self.byte_size = 36  # parent hash + count, charged once per CRL
        #: on the last build day's CRLSet (set by ``_included_urls``).
        self.included = False
        self.parent_removed = False

    def crawled_entry_count(self, day) -> int:
        """What Google's crawler sees listed on this CRL: the eligible
        materialised entries plus the bulk-modelled hidden population
        (present on the wire even though we never identify each entry)."""
        hidden = self.crl.hidden.count_at(day) if self.crl.hidden is not None else 0
        return len(self.active) + hidden


#: one queued change to a crawled CRL: (track, entry key, CRLSet bytes).
_Event = tuple[_CrlTrack, tuple[bytes, int], int]


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
        index: CrawlIndex | None = None,
    ) -> None:
        """The three ``*_override``/``apply_*`` knobs exist for the
        ablation benches: they disable, respectively, the reason-code
        filter (rule 4), the per-CRL entry drop threshold (rule 3), and
        the 250 KB cap (rule 1).  ``index`` shares one
        :class:`CrawlIndex` (and hence the per-CRL event timelines) with
        the crawler and dynamics analysis."""
        self.ecosystem = ecosystem
        self.calibration: Calibration = ecosystem.calibration
        self.index = index if index is not None else CrawlIndex(ecosystem)
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

    @staticmethod
    def _in_partial_subset(serial: int, fraction: float) -> bool:
        if fraction >= 1.0:
            return True
        digest = hashlib.sha256(b"subset" + serial_to_bytes(serial)).digest()
        return digest[0] / 256.0 < fraction

    # -- the sweep ----------------------------------------------------------

    @gc_paused()
    def run(
        self,
        start: datetime.date | None = None,
        end: datetime.date | None = None,
        incremental: bool = True,
    ) -> CrlSetHistory:
        """Sweep the build window.

        ``incremental=False`` forces the original full member-set rebuild
        on every build day (reference path for equality tests).
        """
        cal = self.calibration
        start = start or cal.crlset_build_start
        end = end or cal.measurement_end

        tracks: dict[str, _CrlTrack] = {}
        keys: list[tuple[bytes, int]] = []
        entry_histories: list[EntryHistory] = []
        # Events are keyed by day ordinal.
        adds_by_day: dict[int, list[_Event]] = {}
        removes_by_day: dict[int, list[_Event]] = {}
        first, last = start.toordinal(), end.toordinal()
        filter_reasons = self.apply_reason_filter

        for crl in self.ecosystem.crls:
            if not crl.covered:
                continue
            track = _CrlTrack(
                crl,
                lag_days=self._crawl_lag_days(crl.url),
                partial_fraction=self._partial_fraction(crl.url),
            )
            tracks[crl.url] = track
            parent, url, lag = crl.issuer_key_hash, crl.url, track.lag_days
            fraction = track.partial_fraction
            for entry in crl.entries:
                serial = entry.serial_number
                key = (parent, serial)
                history = EntryHistory(
                    parent,
                    serial,
                    url,
                    entry.revoked_at,
                    entry.cert_not_after,
                    not filter_reasons or is_crlset_eligible(entry.reason),
                    fraction >= 1.0 or self._in_partial_subset(serial, fraction),
                )
                keys.append(key)
                entry_histories.append(history)
                if not history.eligible or not history.in_partial_subset:
                    continue  # never enters the CRLSet
                add_day = entry.revoked_at.toordinal() + lag
                if add_day < first:
                    add_day = first
                remove_day = entry.cert_not_after.toordinal() + 1
                if add_day <= last and remove_day > add_day:
                    event = (track, key, 1 + serial_length(serial))
                    adds_by_day.setdefault(add_day, []).append(event)
                    if remove_day <= last:
                        removes_by_day.setdefault(remove_day, []).append(event)
        # One history per key: a repeated key keeps its first position
        # and its last history.
        histories = dict(zip(keys, entry_histories))

        members: set[tuple[bytes, int]] = set()
        daily_counts: dict[datetime.date, int] = {}
        daily_additions: dict[datetime.date, int] = {}
        daily_removals: dict[datetime.date, int] = {}
        dropped_urls: set[str] = set()
        parents_ever: set[bytes] = set()

        day = start
        removal_applied = False
        #: included-URL set as of the last build day (None forces a full
        #: rebuild: first day, or the parent-removal discontinuity).
        prev_included: frozenset[str] | None = None
        #: key -> track for entries whose crawled state changed since the
        #: last build day (the only membership candidates when the
        #: included-URL set is unchanged).
        pending: dict[tuple[bytes, int], _CrlTrack] = {}
        while day <= end:
            in_gap = cal.crlset_gap_start <= day < cal.crlset_gap_end
            added_today = 0
            removed_today = 0

            # 1. underlying crawled-CRL state always advances.
            ordinal = day.toordinal()
            for track, key, size in adds_by_day.get(ordinal, ()):
                track.active.add(key)
                track.byte_size += size
                pending[key] = track
            for track, key, size in removes_by_day.get(ordinal, ()):
                track.active.discard(key)
                track.byte_size -= size
                pending[key] = track

            # 2. the parent-removal event.
            if not removal_applied and day >= cal.crlset_parent_removal_date:
                for track in tracks.values():
                    if track.crl.brand == self.removal_brand:
                        track.parent_removed = True
                removal_applied = True
                prev_included = None  # inclusion set changes discontinuously

            # 3. on build days, recompute inclusion and sync the member set.
            if not in_gap:
                included_urls = self._included_urls(tracks, day)
                if (
                    incremental
                    and prev_included is not None
                    and included_urls == prev_included
                ):
                    added_today, removed_today = self._sync_pending(
                        members, histories, pending, day
                    )
                else:
                    added_today, removed_today = self._sync_full(
                        tracks, members, histories, included_urls, day
                    )
                prev_included = included_urls
                pending.clear()
                for track in tracks.values():
                    if track.included:
                        parents_ever.add(track.crl.issuer_key_hash)
                    elif track.crawled_entry_count(day) > self.max_entries:
                        dropped_urls.add(track.crl.url)

            daily_counts[day] = len(members)
            daily_additions[day] = added_today
            daily_removals[day] = removed_today
            day += _DAY

        final_parents: dict[bytes, set[int]] = {}
        for parent, serial in members:
            final_parents.setdefault(parent, set()).add(serial)
        final_snapshot = CrlSetSnapshot(
            sequence=len(daily_counts),
            date=end,
            parents={p: frozenset(s) for p, s in final_parents.items()},
            blocked_spkis=self._blocked_spkis,
        )
        return CrlSetHistory(
            daily_entry_counts=daily_counts,
            daily_additions=daily_additions,
            daily_removals=daily_removals,
            entry_histories=list(histories.values()),
            final_snapshot=final_snapshot,
            covered_urls=frozenset(tracks),
            dropped_urls=frozenset(dropped_urls),
            parents_ever=frozenset(parents_ever),
        )

    def _included_urls(
        self, tracks: dict[str, _CrlTrack], day: datetime.date
    ) -> frozenset[str]:
        """Recompute CRL inclusion (rules 1 and 3) and flag the tracks."""
        candidates = [
            track
            for track in tracks.values()
            if not track.parent_removed
            and track.crawled_entry_count(day) <= self.max_entries
        ]
        # Rule 3, applied against the byte cap: if everything does not fit
        # in 250 KB, the CRLs with the most entries are dropped first (a
        # CRL "with too many entries" is dropped, §7.1).
        candidates.sort(key=lambda track: len(track.active))
        budget = self.size_cap - 64  # header overhead
        total = sum(track.byte_size for track in candidates)
        while candidates and total > budget:
            dropped = candidates.pop()  # most entries
            total -= dropped.byte_size
        included_urls = frozenset(track.crl.url for track in candidates)
        for track in tracks.values():
            track.included = track.crl.url in included_urls
        return included_urls

    def _sync_full(
        self,
        tracks: dict[str, _CrlTrack],
        members: set[tuple[bytes, int]],
        histories: dict[tuple[bytes, int], EntryHistory],
        included_urls: frozenset[str],
        day: datetime.date,
    ) -> tuple[int, int]:
        """Rebuild membership as the union of every included active set."""
        new_members = set().union(*(tracks[url].active for url in included_urls))
        arrived = new_members - members
        gone = members - new_members
        for key in arrived:
            history = histories[key]
            if history.first_appeared is None:
                history.first_appeared = day
            history.removed_at = None
        for key in gone:
            histories[key].removed_at = day
        members -= gone
        members |= arrived
        return len(arrived), len(gone)

    def _sync_pending(
        self,
        members: set[tuple[bytes, int]],
        histories: dict[tuple[bytes, int], EntryHistory],
        pending: dict[tuple[bytes, int], _CrlTrack],
        day: datetime.date,
    ) -> tuple[int, int]:
        """Delta path: the included-URL set is unchanged since the last
        build day, so membership can only have changed for entries whose
        crawled state changed in between.  Each key lives on exactly one
        CRL, so its membership is simply its presence on that (included)
        CRL's active set.  Produces states and counts identical to
        :meth:`_sync_full`."""
        added = 0
        removed = 0
        for key, track in pending.items():
            if not track.included:
                continue
            if key in track.active:
                if key not in members:
                    members.add(key)
                    history = histories[key]
                    if history.first_appeared is None:
                        history.first_appeared = day
                    history.removed_at = None
                    added += 1
            elif key in members:
                members.discard(key)
                histories[key].removed_at = day
                removed += 1
        return added, removed
