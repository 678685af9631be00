"""CRLSet dynamics analysis (paper §7.3, Figures 8-10).

From a builder run: the entry-count time series, daily CRL-vs-CRLSet
additions, and the two vulnerability-window distributions -- days until a
revocation appears in the CRLSet, and days between a premature CRLSet
removal and the certificate's expiry.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

from repro.crlset.builder import CrlSetHistory
from repro.scan.crawl_index import CrawlIndex
from repro.scan.ecosystem import Ecosystem

__all__ = ["DynamicsReport", "analyze_dynamics"]


@dataclass(frozen=True)
class DynamicsReport:
    """§7.3's dynamics statistics."""

    #: Figure 8: CRLSet entry count per day.
    entry_count_series: dict[datetime.date, int]
    #: Figure 9: daily new CRL entries (all CRLs) vs new CRLSet entries.
    crl_daily_additions: dict[datetime.date, int]
    crlset_daily_additions: dict[datetime.date, int]
    #: Figure 10: per-entry days from revocation to CRLSet appearance.
    days_to_appear: list[int]
    #: Figure 10: days between premature removal and certificate expiry.
    removal_before_expiry_days: list[int]
    #: entries revoked in a covered CRL that never appeared (vulnerable).
    never_appeared_count: int

    @property
    def min_entries(self) -> int:
        return min(self.entry_count_series.values())

    @property
    def max_entries(self) -> int:
        return max(self.entry_count_series.values())

    def appear_within(self, days: int) -> float:
        if not self.days_to_appear:
            return 0.0
        return sum(1 for d in self.days_to_appear if d <= days) / len(
            self.days_to_appear
        )

    @property
    def median_removal_before_expiry(self) -> float:
        values = sorted(self.removal_before_expiry_days)
        if not values:
            return 0.0
        mid = len(values) // 2
        if len(values) % 2:
            return float(values[mid])
        return (values[mid - 1] + values[mid]) / 2.0

    def weekly_pattern_ratio(self) -> float:
        """Weekday/weekend mean CRL additions (>1 shows Fig 9's pattern)."""
        weekday_total, weekday_n, weekend_total, weekend_n = 0, 0, 0, 0
        for day, count in self.crl_daily_additions.items():
            if day.weekday() < 5:
                weekday_total += count
                weekday_n += 1
            else:
                weekend_total += count
                weekend_n += 1
        if not weekday_n or not weekend_n or not weekend_total:
            return float("inf")
        return (weekday_total / weekday_n) / (weekend_total / weekend_n)


def analyze_dynamics(
    ecosystem: Ecosystem,
    history: CrlSetHistory,
    index: CrawlIndex | None = None,
) -> DynamicsReport:
    """``index`` lets callers share one :class:`CrawlIndex` (and its
    per-CRL event timelines) instead of building another here.  Both
    Figure 9 series cover the CRL crawl window only."""
    cal = ecosystem.calibration
    index = index if index is not None else CrawlIndex(ecosystem)
    crl_additions = index.daily_total_additions()

    window = set(cal.crawl_dates)
    crlset_additions = {
        day: count
        for day, count in history.daily_additions.items()
        if day in window
    }

    # Days-to-appear is only meaningful for revocations that happened
    # while the CRLSet pipeline was running (entries already revoked when
    # the builds began appear "late" only as a censoring artefact).
    days_to_appear = [
        h.days_to_appear
        for h in history.entry_histories
        if h.days_to_appear is not None
        and h.days_to_appear >= 0
        and h.revoked_at >= cal.crlset_build_start
    ]
    removal_days = [
        h.removed_before_expiry_days
        for h in history.entry_histories
        if h.removed_before_expiry_days is not None
    ]
    never = sum(
        1
        for h in history.entry_histories
        if h.eligible and h.first_appeared is None
    )
    return DynamicsReport(
        entry_count_series=dict(history.daily_entry_counts),
        crl_daily_additions=crl_additions,
        crlset_daily_additions=crlset_additions,
        days_to_appear=days_to_appear,
        removal_before_expiry_days=removal_days,
        never_appeared_count=never,
    )
