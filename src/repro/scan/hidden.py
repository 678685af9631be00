"""Bulk model of never-observed CRL entries.

The paper's 2,800 CRLs hold 11.46 M entries, but only ~420 k belong to
scan-observed certificates.  For the big CRLs (which the CRLSet pipeline
drops anyway), the remaining population is modelled in bulk by
:class:`HiddenPopulation`: a deterministic daily additions/removals
schedule with the weekly pattern visible in the paper's Figure 9 and a
Heartbleed burst, constructed so that the population hits an exact target
count at the end of the study.
"""

from __future__ import annotations

import datetime
import math
from functools import lru_cache

import numpy as np

__all__ = ["HiddenPopulation", "weekday_factor"]

#: CA revocation processing shows strong weekday/weekend structure (Fig 9).
_WEEKDAY_FACTORS = (1.25, 1.30, 1.28, 1.22, 1.15, 0.45, 0.35)  # Mon..Sun


def weekday_factor(day: datetime.date) -> float:
    return _WEEKDAY_FACTORS[day.weekday()]


class _Window:
    """The target-independent half of a schedule: the window's length,
    one weight per date (weekday pattern times the Heartbleed burst),
    their sum, and the dates' offsets in busiest-first order.  Every CRL
    of a study shares the same window, so :func:`_window` builds this
    once and each :class:`HiddenPopulation` only scales it to its own
    target."""

    __slots__ = ("busiest", "days", "total_weight", "weights")

    def __init__(
        self,
        window_start: datetime.date,
        window_end: datetime.date,
        heartbleed_date: datetime.date | None,
        heartbleed_boost: float,
        heartbleed_decay_days: float,
    ) -> None:
        days = (window_end - window_start).days + 1
        weights = []
        for i in range(days):
            day = window_start + datetime.timedelta(days=i)
            weight = weekday_factor(day)
            if heartbleed_date is not None and day >= heartbleed_date:
                age = (day - heartbleed_date).days
                weight *= 1.0 + heartbleed_boost * math.exp(
                    -age / heartbleed_decay_days
                )
            weights.append(weight)
        self.days = days
        self.weights = np.array(weights)
        # Summed left to right: numpy's pairwise sum can round differently.
        self.total_weight = sum(weights)
        # A stable sort, so equal weights keep day order.
        self.busiest = np.array(
            sorted(range(days), key=lambda i: -weights[i]), dtype=np.intp
        )


@lru_cache(maxsize=16)
def _window(*key) -> _Window:
    return _Window(*key)


class HiddenPopulation:
    """A deterministic daily schedule of CRL entry additions/removals.

    Exactness: ``count_at(window_end) == target_end`` by construction --
    additions are distributed proportionally to weekday/Heartbleed weights
    and removals absorb the difference.  Queries index per-day lists by
    the day's offset into the window.
    """

    def __init__(
        self,
        target_end: int,
        window_start: datetime.date,
        window_end: datetime.date,
        heartbleed_date: datetime.date | None = None,
        heartbleed_boost: float = 6.0,
        heartbleed_decay_days: float = 14.0,
        churn: float = 0.65,
        growth: float = 0.06,
    ) -> None:
        if target_end < 0:
            raise ValueError("target_end must be non-negative")
        if window_end <= window_start:
            raise ValueError("window_end must follow window_start")
        if not 0.0 <= growth <= churn:
            raise ValueError("growth must be in [0, churn]")
        self.window_start = window_start
        self.window_end = window_end
        self.target_end = target_end

        window = _window(
            window_start,
            window_end,
            heartbleed_date,
            heartbleed_boost,
            heartbleed_decay_days,
        )
        days = window.days
        additions_total = round(target_end * churn)
        # int(additions_total * weight / total_weight) per day, elementwise.
        additions = (additions_total * window.weights / window.total_weight).astype(
            np.int64
        )
        # Distribute the integer remainder over the busiest days.
        remainder = additions_total - int(additions.sum())
        additions[window.busiest[: max(0, remainder)]] += 1

        # Removals are spread evenly; the first `extra` days take one more.
        removals_total = additions_total - round(target_end * growth)
        per_day, extra = divmod(removals_total, days)
        removals = np.full(days, per_day, np.int64)
        removals[:extra] += 1

        self._initial = target_end - (int(additions.sum()) - removals_total)
        self._start = window_start.toordinal()
        self._days = days
        #: additions and removals per window day, for the vector reads.
        self._changes = np.stack((additions, removals))
        self._additions: list[int] = additions.tolist()
        self._removals: list[int] = removals.tolist()
        cumulative = self._initial + np.cumsum(additions - removals)
        #: the count before the window, then on each window day.
        self._counts = np.concatenate(([self._initial], cumulative))
        self._cumulative: list[int] = cumulative.tolist()

    def _offset(self, day: datetime.date) -> int:
        return day.toordinal() - self._start

    def additions_on(self, day: datetime.date) -> int:
        offset = self._offset(day)
        return self._additions[offset] if 0 <= offset < self._days else 0

    def removals_on(self, day: datetime.date) -> int:
        offset = self._offset(day)
        return self._removals[offset] if 0 <= offset < self._days else 0

    def count_at(self, day: datetime.date) -> int:
        offset = self._offset(day)
        if offset < 0:
            return self._initial
        return self._cumulative[min(offset, self._days - 1)]

    def counts_at(self, ordinals: np.ndarray) -> np.ndarray:
        """:meth:`count_at` for an array of day ordinals."""
        offsets = np.clip(np.asarray(ordinals) - self._start, -1, self._days - 1)
        return self._counts[offsets + 1]

    def active_days(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The window days on which the schedule adds or removes
        entries, in day order, as int64 arrays: their ordinals, then the
        additions and the removals on each."""
        active = np.flatnonzero(self._changes.any(axis=0))
        additions, removals = self._changes[:, active]
        return self._start + active, additions, removals

    @property
    def initial_count(self) -> int:
        return self._initial
