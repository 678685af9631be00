"""Fresh/alive/revoked timelines (paper §3.3 and Figure 2).

Vectorised with numpy over date ordinals: for each sample date, the
fraction of *fresh* certificates (within validity) and *alive*
certificates (still advertised) that have been revoked, for all
certificates and for the EV subset.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

import numpy as np

from repro.scan.corpus import LeafColumns

__all__ = ["RevocationSeries", "revocation_series"]


@dataclass(frozen=True)
class RevocationSeries:
    """Figure 2's four series on a shared date axis."""

    dates: tuple[datetime.date, ...]
    fresh_revoked_all: tuple[float, ...]
    fresh_revoked_ev: tuple[float, ...]
    alive_revoked_all: tuple[float, ...]
    alive_revoked_ev: tuple[float, ...]

    def at(self, day: datetime.date) -> dict[str, float]:
        index = self.dates.index(day)
        return {
            "fresh_revoked_all": self.fresh_revoked_all[index],
            "fresh_revoked_ev": self.fresh_revoked_ev[index],
            "alive_revoked_all": self.alive_revoked_all[index],
            "alive_revoked_ev": self.alive_revoked_ev[index],
        }

    def peak_fresh_revoked(self) -> tuple[datetime.date, float]:
        index = max(
            range(len(self.dates)), key=lambda i: self.fresh_revoked_all[i]
        )
        return self.dates[index], self.fresh_revoked_all[index]


def revocation_series(
    leaves: LeafColumns,
    start: datetime.date,
    end: datetime.date,
    step_days: int = 7,
) -> RevocationSeries:
    """Compute Figure 2's series between ``start`` and ``end`` over the
    leaf columns' date ordinals."""
    if end < start:
        raise ValueError("end must not precede start")
    is_ev = leaves.is_ev != 0

    dates: list[datetime.date] = []
    day = start
    while day <= end:
        dates.append(day)
        day += datetime.timedelta(days=step_days)

    fresh_all: list[float] = []
    fresh_ev: list[float] = []
    alive_all: list[float] = []
    alive_ev: list[float] = []
    for day in dates:
        fresh = leaves.fresh_mask(day)
        alive = leaves.alive_mask(day)
        is_revoked = leaves.revoked_mask(day)
        fresh_all.append(_fraction(is_revoked, fresh))
        alive_all.append(_fraction(is_revoked, alive))
        fresh_ev.append(_fraction(is_revoked, fresh & is_ev))
        alive_ev.append(_fraction(is_revoked, alive & is_ev))

    return RevocationSeries(
        dates=tuple(dates),
        fresh_revoked_all=tuple(fresh_all),
        fresh_revoked_ev=tuple(fresh_ev),
        alive_revoked_all=tuple(alive_all),
        alive_revoked_ev=tuple(alive_ev),
    )


def _fraction(numerator_mask: np.ndarray, denominator_mask: np.ndarray) -> float:
    denominator = int(np.count_nonzero(denominator_mask))
    if denominator == 0:
        return 0.0
    return int(np.count_nonzero(numerator_mask & denominator_mask)) / denominator
