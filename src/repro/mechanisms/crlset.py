"""Chrome's CRLSets as a pluggable mechanism (paper §7).

A vendor-pushed aggregate of (parent SPKI, serial) pairs, capped at
250 KB: zero per-connection cost, but coverage is a hand-picked sliver
of all revocations -- the paper's headline criticism.  ``covers`` is
honest about that sliver: a revoked certificate the set omits (wrong
reason code, dropped CRL, over-cap trimming) is *not covered*, and
``lookup`` answers ``NO_INFO`` rather than vouching for it.
"""

from __future__ import annotations

import datetime

from repro.mechanisms.base import (
    CheckCost,
    Delivery,
    RevocationMechanism,
    ServeModel,
    SessionState,
    UpdateModel,
)
from repro.mechanisms.registry import register
from repro.revocation.checker import CheckOutcome
from repro.scan.records import LeafRecord


@register
class CrlSetMechanism(RevocationMechanism):
    name = "crlset"
    title = "CRLSet (vendor push, 250 KB cap)"
    delivery = Delivery.PUSHED

    @property
    def _snapshot(self):
        """The final published CRLSet (host builds the daily history
        once; the mechanism reads its last snapshot)."""
        return self.host.crlset_history.final_snapshot

    def covers(self, leaf: LeafRecord) -> bool:
        snapshot = self._snapshot
        spki = self.ecosystem.intermediates[leaf.intermediate_id].spki_hash
        if leaf.revoked_at is not None:
            # A revocation the set omitted is simply not covered.
            return snapshot.is_revoked(spki, leaf.serial_number)
        return snapshot.covers(spki)

    def lookup(self, leaf: LeafRecord, at: datetime.date) -> CheckOutcome:
        if not self.covers(leaf):
            return CheckOutcome.NO_INFO
        if leaf.revoked_at is not None and leaf.revoked_at <= at:
            return CheckOutcome.REVOKED
        if at > leaf.not_after:
            return CheckOutcome.UNKNOWN
        return CheckOutcome.GOOD

    def update_model(self) -> UpdateModel:
        # Pushed roughly daily; Figure 10 measures ~1 day of crawl /
        # publication lag before a revocation appears.
        return UpdateModel(update_interval_days=1.0, propagation_lag_days=1.0)

    def serve_model(self) -> ServeModel:
        # Daily pushed deltas against the ~250 KB blob; clients pull on
        # the component-updater cadence.
        return ServeModel(
            endpoint="aggregate",
            presign_interval_days=1.0,
            delta_fraction=0.08,
            pull_interval_days=1.0,
        )

    def check_cost(self, leaf: LeafRecord, session: SessionState) -> CheckCost:
        return CheckCost()  # pushed out of band: free at browse time

    def payload_bytes(self, at: datetime.date) -> int:
        return self._snapshot.size_bytes
