"""Incremental CRL series engine.

The daily CRL crawl (Figures 5, 6 and 9, Table 1), the CRLSet builder's
daily sweep, and the dynamics analysis all need per-day views of every
CRL (entry count, additions, byte size) over the ~180-day crawl window.
The naive way -- re-scanning every entry's visibility window for every
(CRL, day) pair -- is O(days x entries) and dominated Figure 5/6/9
generation.

:class:`CrlSeries` precomputes, once per CRL, a sorted revocation-event
timeline with byte-size prefix sums, making ``entry_count(day)``,
``additions_on(day)``, and ``size_bytes(day)`` O(log n) bisections.
:class:`CrawlIndex` aggregates the per-CRL series across an ecosystem and
memoises the whole-corpus daily-additions sweep (one pass over all
entries instead of one pass per day).

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
import operator
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import accumulate
from typing import TYPE_CHECKING, Iterable

from repro.revocation.sizing import (
    CrlSizeModel,
    representative_entry_size,
    revoked_entry_size,
)
from repro.scan.bulk import gc_paused

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.scan.crl_model import EcosystemCrl
    from repro.scan.ecosystem import Ecosystem

__all__ = ["CrawlIndex", "CrlSeries"]


class CrlSeries:
    """Precomputed revocation-event timeline for one CRL.

    Built once from the CRL's materialised entries and bulk
    :class:`~repro.scan.hidden.HiddenPopulation`; every per-day query is
    then a bisection over the sorted event arrays.
    """

    __slots__ = (
        "_additions",
        "_exp_cum_bytes",
        "_exp_days",
        "_hidden",
        "_hidden_entry_size",
        "_rev_cum_bytes",
        "_rev_days",
        "_size_model",
    )

    @gc_paused()
    def __init__(self, crl: "EcosystemCrl") -> None:
        entries = crl.entries
        revoked = [entry.revoked_at for entry in entries]
        expiry = [entry.cert_not_after for entry in entries]
        if any(map(operator.gt, revoked, expiry)):
            entry = next(e for e in entries if e.revoked_at > e.cert_not_after)
            raise ValueError(
                f"entry {entry.serial_number} on {crl.url} revoked after "
                "certificate expiry; timeline decomposition needs "
                "revoked_at <= cert_not_after"
            )
        sizes = [
            _ENTRY_SIZES[
                entry.serial_number.bit_length() // 8 + 1,
                entry.reason is not None,
                entry.revoked_at.year > 2049,
            ]
            if entry.serial_number >= 0
            else revoked_entry_size(
                entry.serial_number,
                with_reason=entry.reason is not None,
                generalized_time=entry.revoked_at.year > 2049,
            )
            for entry in entries
        ]

        # Entries sorted by revocation day, with byte prefix sums.  The
        # order among equal days is irrelevant: queries only read sums
        # at day boundaries.
        by_revoked = sorted(range(len(entries)), key=revoked.__getitem__)
        self._rev_days = [revoked[i] for i in by_revoked]
        self._rev_cum_bytes = _prefix_sums([sizes[i] for i in by_revoked])

        # Entries sorted by expiry day (when they drop off the CRL).
        by_expiry = sorted(range(len(entries)), key=expiry.__getitem__)
        self._exp_days = [expiry[i] for i in by_expiry]
        self._exp_cum_bytes = _prefix_sums([sizes[i] for i in by_expiry])

        self._additions = Counter(self._rev_days)
        self._hidden = crl.hidden
        self._hidden_entry_size = representative_entry_size(crl.serial_bytes)
        self._size_model = CrlSizeModel(
            issuer=crl.issuer_name,
            signature_size=crl.signature_size,
            signature_algorithm_oid=crl.signature_algorithm_oid,
        )

    # -- per-day queries (all O(log n)) ------------------------------------

    def entry_count(self, day: datetime.date) -> int:
        """Entries listed on ``day`` (materialised + hidden bulk)."""
        count = self.materialized_count(day)
        if self._hidden is not None:
            count += self._hidden.count_at(day)
        return count

    def materialized_count(self, day: datetime.date) -> int:
        # revoked on or before `day`, minus expired strictly before `day`.
        return bisect_right(self._rev_days, day) - bisect_left(self._exp_days, day)

    def additions_on(self, day: datetime.date) -> int:
        count = self._additions.get(day, 0)
        if self._hidden is not None:
            count += self._hidden.additions_on(day)
        return count

    def materialized_bytes(self, day: datetime.date) -> int:
        """Total encoded size of the materialised entries visible on ``day``."""
        revoked = bisect_right(self._rev_days, day)
        expired = bisect_left(self._exp_days, day)
        return self._rev_cum_bytes[revoked] - self._exp_cum_bytes[expired]

    def size_bytes(self, day: datetime.date) -> int:
        """Exact DER size of the CRL as published on ``day``."""
        entry_bytes = self.materialized_bytes(day)
        if self._hidden is not None:
            entry_bytes += self._hidden.count_at(day) * self._hidden_entry_size
        return self._size_model.size(entry_bytes)

    # -- bulk access --------------------------------------------------------

    @property
    def addition_days(self) -> Counter:
        """day -> materialised additions (hidden bulk not included)."""
        return self._additions

    @property
    def hidden(self):
        return self._hidden


def _prefix_sums(values: Iterable[int]) -> list[int]:
    return list(accumulate(values, initial=0))


class _EntrySizes(dict):
    """Encoded size of a CRL entry by ``(serial content width, has a
    reason, GeneralizedTime revocation date)`` -- the only inputs
    :func:`revoked_entry_size` reads for a non-negative serial, whose
    content width is ``bit_length() // 8 + 1``."""

    def __missing__(self, key: tuple[int, bool, bool]) -> int:
        width, with_reason, generalized_time = key
        # The smallest serial with that content width.
        serial = 1 << 8 * (width - 1)
        size = self[key] = revoked_entry_size(
            serial, with_reason=with_reason, generalized_time=generalized_time
        )
        return size


_ENTRY_SIZES = _EntrySizes()


class CrawlIndex:
    """Shared per-ecosystem cache of :class:`CrlSeries`.

    One instance is built per :class:`MeasurementStudy` and answers its
    CRL size and entry-count queries; the study hands the same instance
    to the CRLSet builder and the dynamics analysis, so the event
    timelines are computed once instead of once per consumer.
    """

    def __init__(self, ecosystem: "Ecosystem") -> None:
        self.ecosystem = ecosystem
        self._daily_additions: dict[datetime.date, int] | None = None

    def series(self, crl: "EcosystemCrl") -> CrlSeries:
        return crl.series

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
                totals.update(crl.series.addition_days)
                if crl.hidden is not None:
                    hidden_pops.append(crl.hidden)
            series = {}
            for day in dates:
                count = totals.get(day, 0)
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
