"""Rapid7-style weekly IPv4 HTTPS scans over the synthetic ecosystem.

Each scan yields a :class:`ScanSnapshot`: the set of Leaf Set certificates
advertised on that date.  The paper used 74 such scans (Oct 2013 -
Mar 2015) to define certificate birth/death and the alive timeline (§3).
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.obs import NULL_OBS, Observability
from repro.scan.calibration import Calibration
from repro.scan.ecosystem import Ecosystem

__all__ = ["Rapid7Scanner", "ScanSnapshot"]


@dataclass(frozen=True, eq=False)
class ScanSnapshot:
    """Certificates observed advertised in one full-IPv4 scan.

    ``ids`` is the sorted int64 array of their cert_ids; ``len()`` and
    ``in`` read it directly, and :attr:`cert_ids` is the same set as a
    ``frozenset``, built on first read.
    """

    date: datetime.date
    ids: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, cert_id: int) -> bool:
        index = int(np.searchsorted(self.ids, cert_id))
        return index < len(self.ids) and self.ids[index] == cert_id

    @cached_property
    def cert_ids(self) -> frozenset[int]:
        return frozenset(self.ids.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScanSnapshot):
            return NotImplemented
        return self.date == other.date and np.array_equal(self.ids, other.ids)

    def __hash__(self) -> int:
        return hash((self.date, self.ids.tobytes()))


class Rapid7Scanner:
    """Runs the weekly scan series against an ecosystem."""

    def __init__(
        self, ecosystem: Ecosystem, obs: Observability | None = None
    ) -> None:
        self.ecosystem = ecosystem
        self.calibration: Calibration = ecosystem.calibration
        self.obs = obs if obs is not None else NULL_OBS

    def scan(self, date: datetime.date) -> ScanSnapshot:
        # Vectorised via the ecosystem's LeafIndex: one mask comparison
        # over precomputed date ordinals instead of a per-leaf Python loop.
        alive = np.flatnonzero(self.ecosystem.leaf_index.alive_mask(date))
        if self.obs.enabled:
            self.obs.tracer.event(
                "scan.snapshot", date=date.isoformat(), alive=len(alive)
            )
            self.obs.metrics.counter("scan.certs_observed").inc(len(alive))
        return ScanSnapshot(date=date, ids=alive)

    def run_all(self) -> list[ScanSnapshot]:
        with self.obs.tracer.span(
            "scan.series", scans=len(self.calibration.scan_dates)
        ):
            return [self.scan(date) for date in self.calibration.scan_dates]

    def birth_death_table(
        self, snapshots: list[ScanSnapshot]
    ) -> dict[int, tuple[datetime.date, datetime.date]]:
        """First/last scan date each certificate was seen -- how the paper
        derives lifetimes from scans (scan-granularity, not ground truth)."""
        seen: dict[int, tuple[datetime.date, datetime.date]] = {}
        for snapshot in snapshots:
            for cert_id in snapshot.ids.tolist():
                if cert_id in seen:
                    first, _ = seen[cert_id]
                    seen[cert_id] = (first, snapshot.date)
                else:
                    seen[cert_id] = (snapshot.date, snapshot.date)
        return seen
