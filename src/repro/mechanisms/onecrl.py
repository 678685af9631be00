"""OneCRL: Mozilla's pushed revocation list for intermediates.

Paper §7 footnote 24: "In contrast to CRLSets, OneCRL is for intermediate
certificates.  As of this writing, there are only 8 revoked certificates
on the list."  Revoking an intermediate is the catastrophic case -- a
compromised CA key signs valid certificates for *any* domain (§3.2) --
and intermediates are few, so a complete pushed list is tiny.

:class:`OneCrl` is that list; :func:`build_onecrl` derives it from an
ecosystem's intermediate records; :func:`blast_radius` counts how many
leaf certificates one compromised intermediate endangers -- the reason a
complete intermediate list matters far more per byte than a CRLSet.

:class:`OneCrlMechanism` puts the list behind the shared mechanism
interface so the sweeps can hold its tiny payload against its
deliberately narrow scope -- leaf revocations are invisible to it, and
``lookup`` says so (``NO_INFO``) instead of vouching ``GOOD`` for a
revoked leaf.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field

import numpy as np

from repro.mechanisms.base import (
    CheckCost,
    Delivery,
    RevocationMechanism,
    ServeModel,
    SessionState,
    UpdateModel,
    residual_life_days,
)
from repro.mechanisms.registry import register
from repro.revocation.checker import CheckOutcome
from repro.scan.ecosystem import Ecosystem
from repro.scan.records import LeafRecord

__all__ = ["OneCrl", "OneCrlMechanism", "blast_radius", "build_onecrl"]


@dataclass(frozen=True)
class OneCrl:
    """A complete pushed list of revoked intermediates."""

    date: datetime.date
    #: SPKI hashes of revoked intermediate certificates.
    revoked_spkis: frozenset[bytes] = field(default_factory=frozenset)

    def is_revoked(self, spki_hash: bytes) -> bool:
        return spki_hash in self.revoked_spkis

    def blocks_chain(self, intermediate_spkis: list[bytes]) -> bool:
        return any(spki in self.revoked_spkis for spki in intermediate_spkis)

    @property
    def size_bytes(self) -> int:
        """32 bytes per entry plus a small header -- OneCRL stays tiny
        because the intermediate population is tiny."""
        return 16 + 32 * len(self.revoked_spkis)

    def __len__(self) -> int:
        return len(self.revoked_spkis)


def build_onecrl(ecosystem: Ecosystem, at: datetime.date) -> OneCrl:
    """Assemble the OneCRL from intermediates revoked by ``at``."""
    revoked = frozenset(
        record.spki_hash
        for record in ecosystem.intermediates
        if record.revoked_at is not None and record.revoked_at <= at
    )
    return OneCrl(date=at, revoked_spkis=revoked)


def blast_radius(ecosystem: Ecosystem, intermediate_id: int) -> int:
    """Leaf certificates issued under one intermediate: everything a
    compromise of that single CA key endangers."""
    return int(np.count_nonzero(ecosystem.leaves.intermediate == intermediate_id))


@register
class OneCrlMechanism(RevocationMechanism):
    name = "onecrl"
    title = "OneCRL (pushed list of revoked intermediates)"
    delivery = Delivery.PUSHED

    def covers(self, leaf: LeafRecord) -> bool:
        """Only chains under a (to-be-)listed intermediate are in scope;
        the revoked *leaf* population is deliberately not."""
        if leaf.revoked_at is not None:
            intermediate = self.ecosystem.intermediates[leaf.intermediate_id]
            return intermediate.revoked_at is not None
        return True  # a clean chain is vouched for by list absence

    def lookup(self, leaf: LeafRecord, at: datetime.date) -> CheckOutcome:
        intermediate = self.ecosystem.intermediates[leaf.intermediate_id]
        if intermediate.revoked_at is not None and intermediate.revoked_at <= at:
            return CheckOutcome.REVOKED  # the whole subtree is blocked
        if leaf.revoked_at is not None:
            return CheckOutcome.NO_INFO  # leaf revocations are out of scope
        if at > leaf.not_after:
            return CheckOutcome.UNKNOWN
        return CheckOutcome.GOOD

    def update_model(self) -> UpdateModel:
        # Shipped with the browser's daily component-update push.
        return UpdateModel(update_interval_days=1.0)

    def serve_model(self) -> ServeModel:
        # The intermediate list is tiny, so each daily push carries a
        # large fraction of it.
        return ServeModel(
            endpoint="aggregate",
            presign_interval_days=1.0,
            delta_fraction=0.25,
            pull_interval_days=1.0,
        )

    def vulnerability_windows(
        self, rows, update_interval_days: float | None = None
    ) -> np.ndarray:
        """Honest about scope: a revoked leaf under a healthy
        intermediate stays accepted until it expires."""
        windows = super().vulnerability_windows(rows, update_interval_days)
        leaves = self.ecosystem.leaves
        healthy = np.array(
            [record.revoked_at is None for record in self.ecosystem.intermediates]
        )[leaves.intermediate[rows]]
        residual = residual_life_days(leaves.not_after[rows], leaves.revoked[rows])
        return np.where(healthy, residual, windows)

    def check_cost(self, leaf: LeafRecord, session: SessionState) -> CheckCost:
        return CheckCost()  # pushed out of band

    def payload_bytes(self, at: datetime.date) -> int:
        return build_onecrl(self.ecosystem, at).size_bytes
