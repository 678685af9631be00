"""Incremental CRL series engine.

The daily CRL crawl (Figures 5, 6 and 9, Table 1), the serving layer's
CRL sizing and the dynamics analysis all need per-day views of every
CRL (entry count, additions, byte size) over the ~180-day crawl window.
The naive way -- re-scanning every entry's visibility window for every
(CRL, day) pair -- is O(days x entries) and dominated Figure 5/6/9
generation.

:class:`CrlSeries` precomputes, once per CRL, a sorted revocation-event
timeline with byte-size prefix sums, making ``entry_count(day)``,
``additions_on(day)``, and ``size_bytes(day)`` O(log n) bisections.  It
is built from the CRL's entry columns
(:attr:`~repro.scan.crl_model.EcosystemCrl.entry_columns`) with a few
vector operations: a size-table lookup, then per distinct revocation and
expiry day an entry count and byte sum (``bincount``) and their prefix
sums.  :class:`CrawlIndex` aggregates the per-CRL series across
an ecosystem and memoises the whole-corpus daily-additions sweep (one
pass over all entries instead of one pass per day).

Correctness rests on the corpus invariant ``revoked_at <=
cert_not_after`` (an entry is listed from revocation until certificate
expiry), which lets visible-set queries decompose into two prefix
lookups; the constructor asserts it.  ``tests/scan/test_crawl_index.py``
checks every query against the naive per-day rescans kept in
``tests/scan/naive_crawl.py``, and that the index stays at least 3x
faster than them.
"""

from __future__ import annotations

import datetime
from bisect import bisect_left, bisect_right
from collections import Counter
from typing import TYPE_CHECKING

import numpy as np

from repro.revocation.sizing import representative_entry_size, revoked_entry_size
from repro.scan.bulk import gc_paused

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.scan.crl_model import EcosystemCrl
    from repro.scan.ecosystem import Ecosystem

__all__ = ["CrawlIndex", "CrlSeries"]

#: revocation dates from this ordinal on are encoded as GeneralizedTime.
_GENERALIZED_TIME_FROM = datetime.date(2050, 1, 1).toordinal()


def _entry_size_table() -> np.ndarray:
    """Encoded CRL entry size by ``(width - 1) * 4 + has reason * 2 +
    GeneralizedTime``, where ``width`` is the serial's DER content width
    (``bit_length() // 8 + 1``, 1-22 for the codec's 21 bytes) -- the
    only inputs :func:`revoked_entry_size` reads for a non-negative
    serial.  Each size is computed from the smallest serial of its
    width."""
    return np.array(
        [
            revoked_entry_size(
                1 << 8 * (width - 1),
                with_reason=with_reason,
                generalized_time=generalized_time,
            )
            for width in range(1, 23)
            for with_reason in (False, True)
            for generalized_time in (False, True)
        ],
        np.int64,
    )


_ENTRY_SIZES = _entry_size_table()


def _entry_sizes(columns) -> np.ndarray:
    """Encoded size of each entry in an :class:`EntryColumns`."""
    significant, lead = columns.serial_significance()
    width = np.maximum(significant + (lead >= 0x80), 1)
    code = (width - 1) * 4 + (columns.reason >= 0) * 2
    code += columns.revoked >= _GENERALIZED_TIME_FROM
    return _ENTRY_SIZES[code]


def _record_timeline(entries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(revoked, expiry, size)`` columns sized entry by entry: the
    fallback for serials the codec cannot hold (negative, or 2**168 and
    up), which only hand-built CRLs carry."""
    return (
        np.array([entry.revoked_at.toordinal() for entry in entries], np.int64),
        np.array([entry.cert_not_after.toordinal() for entry in entries], np.int64),
        np.array(
            [
                revoked_entry_size(
                    entry.serial_number,
                    with_reason=entry.reason is not None,
                    generalized_time=entry.revoked_at.year > 2049,
                )
                for entry in entries
            ],
            np.int64,
        ),
    )


def _day_totals(days: np.ndarray, sizes: np.ndarray) -> tuple[list[int], ...]:
    """``(distinct days, running counts, running bytes, per-day counts)``
    of entries keyed by ``days``: the days ascending, the running totals
    with a leading 0, all as Python ints."""
    if not len(days):
        return [], [0], [0], []
    base = int(days.min())
    offsets = days - base
    counts = np.bincount(offsets)
    present = np.flatnonzero(counts)
    per_day = counts[present]
    totals = np.zeros((2, len(present) + 1), np.int64)
    totals[0, 1:] = per_day.cumsum()
    totals[1, 1:] = np.bincount(offsets, sizes)[present].cumsum()  # exact
    running_counts, running_bytes = totals.tolist()
    return (present + base).tolist(), running_counts, running_bytes, per_day.tolist()


class CrlSeries:
    """Precomputed revocation-event timeline for one CRL.

    Built once from the CRL's entry columns and bulk
    :class:`~repro.scan.hidden.HiddenPopulation`; every per-day query is
    then a bisection over sorted day ordinals that returns Python ints.
    """

    __slots__ = (
        "_additions",
        "_exp_bytes",
        "_exp_count",
        "_exp_days",
        "_hidden",
        "_hidden_entry_size",
        "_rev_bytes",
        "_rev_count",
        "_rev_days",
        "_size_model",
    )

    @gc_paused()
    def __init__(self, crl: "EcosystemCrl") -> None:
        try:
            columns = crl.entry_columns
        except OverflowError:
            revoked, expiry, sizes = _record_timeline(crl.entries)
        else:
            revoked, expiry = columns.revoked, columns.expiry
            sizes = _entry_sizes(columns)
        late = revoked > expiry
        if late.any():
            entry = crl.entries[int(late.argmax())]
            raise ValueError(
                f"entry {entry.serial_number} on {crl.url} revoked after "
                "certificate expiry; timeline decomposition needs "
                "revoked_at <= cert_not_after"
            )

        # The distinct revocation days and expiry days (when entries drop
        # off the CRL), ascending, each with the running entry count and
        # byte total up to and including it (index 0: none yet).
        self._rev_days, self._rev_count, self._rev_bytes, additions = _day_totals(
            revoked, sizes
        )
        self._exp_days, self._exp_count, self._exp_bytes, _ = _day_totals(
            expiry, sizes
        )
        #: revocation day ordinal -> materialised additions.
        self._additions = dict(zip(self._rev_days, additions))
        self._hidden = crl.hidden
        self._hidden_entry_size = representative_entry_size(crl.serial_bytes)
        self._size_model = crl.size_model

    # -- per-day queries (all O(log n)) ------------------------------------

    def entry_count(self, day: datetime.date) -> int:
        """Entries listed on ``day`` (materialised + hidden bulk)."""
        count = self.materialized_count(day)
        if self._hidden is not None:
            count += self._hidden.count_at(day)
        return count

    def materialized_count(self, day: datetime.date) -> int:
        # revoked on or before `day`, minus expired strictly before `day`.
        ordinal = day.toordinal()
        return (
            self._rev_count[bisect_right(self._rev_days, ordinal)]
            - self._exp_count[bisect_left(self._exp_days, ordinal)]
        )

    def additions_on(self, day: datetime.date) -> int:
        count = self._additions.get(day.toordinal(), 0)
        if self._hidden is not None:
            count += self._hidden.additions_on(day)
        return count

    def materialized_bytes(self, day: datetime.date) -> int:
        """Total encoded size of the materialised entries visible on ``day``."""
        ordinal = day.toordinal()
        return (
            self._rev_bytes[bisect_right(self._rev_days, ordinal)]
            - self._exp_bytes[bisect_left(self._exp_days, ordinal)]
        )

    def size_bytes(self, day: datetime.date) -> int:
        """Exact DER size of the CRL as published on ``day``."""
        entry_bytes = self.materialized_bytes(day)
        if self._hidden is not None:
            entry_bytes += self._hidden.count_at(day) * self._hidden_entry_size
        return self._size_model.size(entry_bytes)

    # -- bulk access --------------------------------------------------------

    @property
    def additions_by_ordinal(self) -> dict[int, int]:
        """day ordinal -> materialised additions (hidden bulk not included)."""
        return self._additions

    @property
    def hidden(self):
        return self._hidden


class CrawlIndex:
    """Per-ecosystem CRL crawl queries over the CRLs' cached
    :class:`CrlSeries`.

    One instance is built per :class:`MeasurementStudy` and answers its
    CRL size and entry-count queries; the study hands the same instance
    to the dynamics analysis, so the whole-corpus daily additions are
    summed once.
    """

    def __init__(self, ecosystem: "Ecosystem") -> None:
        self.ecosystem = ecosystem
        self._daily_additions: dict[datetime.date, int] | None = None

    def daily_total_additions(self) -> dict[datetime.date, int]:
        """New CRL entries per crawl day, across every CRL (Figure 9).

        Single pass: materialised additions are aggregated from the
        per-CRL day counters; hidden-bulk schedules are summed per day.
        """
        if self._daily_additions is None:
            dates = self.ecosystem.calibration.crawl_dates
            totals: Counter = Counter()
            hidden_pops = []
            for crl in self.ecosystem.crls:
                totals.update(crl.series.additions_by_ordinal)
                if crl.hidden is not None:
                    hidden_pops.append(crl.hidden)
            series = {}
            for day in dates:
                count = totals.get(day.toordinal(), 0)
                for hidden in hidden_pops:
                    count += hidden.additions_on(day)
                series[day] = count
            self._daily_additions = series
        return dict(self._daily_additions)

    def entry_counts_at(self, day: datetime.date) -> dict[str, int]:
        return {crl.url: crl.series.entry_count(day) for crl in self.ecosystem.crls}

    def sizes_at(self, day: datetime.date) -> dict[str, int]:
        return {crl.url: crl.series.size_bytes(day) for crl in self.ecosystem.crls}

    def total_entries(self, day: datetime.date) -> int:
        return sum(crl.series.entry_count(day) for crl in self.ecosystem.crls)
