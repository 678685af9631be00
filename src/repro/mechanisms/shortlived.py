"""Short-lived certificates vs revocation (paper §8/§9).

Topalovic et al. [46] propose certificates so short-lived that revocation
becomes unnecessary: "revoking a certificate is as easy as not renewing
it."  The paper cites this as one of the viable ways out of the revocation
mess.  There is no revocation channel at all -- the update interval *is*
the certificate lifetime, so the vulnerability window is bounded by it.
:class:`ShortLivedMechanism` gives that issuance model the shared
mechanism interface so the sweeps can compare it.

:func:`attack_window_study` quantifies the trade-off on the synthetic
ecosystem: draw key-compromise events over the revoked population and
measure how long a MITM attacker can use the stolen key under each
*client/issuance regime*:

* ``SOFT_FAIL``  -- 2015-style browser: never learns of the revocation;
  the window runs until the certificate expires.
* ``HARD_FAIL``  -- a checking client: window = administrator reaction
  time + revocation-information propagation (CRL/OCSP cache lifetime).
* ``SHORT_LIVED`` -- no revocation at all; window = time left until the
  (short) expiry, capped by the administrator simply not renewing.
"""

from __future__ import annotations

import datetime
import enum
import random
from dataclasses import dataclass

import numpy as np

from repro.core import stats
from repro.mechanisms.base import (
    CheckCost,
    Delivery,
    RevocationMechanism,
    ServeModel,
    SessionState,
    UpdateModel,
    attack_window_days,
    residual_life_days,
    staleness_window_days,
)
from repro.mechanisms.registry import register
from repro.revocation.checker import CheckOutcome
from repro.scan.ecosystem import Ecosystem
from repro.scan.records import LeafRecord

__all__ = [
    "SHORT_LIVED_DAYS",
    "AttackWindowReport",
    "RevocationRegime",
    "ShortLivedMechanism",
    "attack_window_study",
]

#: default certificate lifetime, for the mechanism and the regime study.
SHORT_LIVED_DAYS = 4


@register
class ShortLivedMechanism(RevocationMechanism):
    name = "short-lived"
    title = f"Short-lived certificates ({SHORT_LIVED_DAYS}-day, no revocation)"
    delivery = Delivery.LIFETIME

    lifetime_days = SHORT_LIVED_DAYS

    def covers(self, leaf: LeafRecord) -> bool:
        return True  # expiry needs no pointers

    def lookup(self, leaf: LeafRecord, at: datetime.date) -> CheckOutcome:
        """Status under the short-lived *issuance regime*: the CA stops
        renewing at ``revoked_at``, so the last short certificate dies
        at most one lifetime later."""
        if leaf.revoked_at is not None:
            expiry = leaf.revoked_at + datetime.timedelta(
                days=self.lifetime_days
            )
            if min(expiry, leaf.not_after) <= at:
                return CheckOutcome.REVOKED
        elif at > leaf.not_after:
            return CheckOutcome.UNKNOWN
        return CheckOutcome.GOOD

    def update_model(self) -> UpdateModel:
        return UpdateModel(update_interval_days=float(self.lifetime_days))

    def serve_model(self) -> ServeModel:
        # No online endpoint: the serving cost is the CA's re-issuance
        # load, one signing per alive certificate per lifetime.
        return ServeModel(
            endpoint="issuance",
            presign_interval_days=float(self.lifetime_days),
        )

    def check_cost(self, leaf: LeafRecord, session: SessionState) -> CheckCost:
        return CheckCost()  # no revocation traffic, ever

    def payload_bytes(self, at: datetime.date) -> int:
        return 0  # there is no revocation artifact


class RevocationRegime(enum.Enum):
    SOFT_FAIL = "soft-fail client, 1y certs + revocation"
    HARD_FAIL = "hard-fail client, 1y certs + revocation"
    SHORT_LIVED = "short-lived certs (no revocation)"


@dataclass(frozen=True)
class AttackWindowReport:
    """Attack-window distributions (days) per regime."""

    windows: dict[RevocationRegime, list[float]]
    short_lived_days: int

    def mean(self, regime: RevocationRegime) -> float:
        values = self.windows[regime]
        return sum(values) / len(values) if values else 0.0

    def median(self, regime: RevocationRegime) -> float:
        values = self.windows[regime]
        return stats.median(values) if values else 0.0

    def improvement_factor(self) -> float:
        """Mean soft-fail window over mean short-lived window."""
        short = self.mean(RevocationRegime.SHORT_LIVED)
        return self.mean(RevocationRegime.SOFT_FAIL) / short if short else float("inf")


def attack_window_study(
    ecosystem: Ecosystem,
    short_lived_days: int = SHORT_LIVED_DAYS,
    admin_reaction_days: float = 3.0,
    revocation_propagation_days: float = 4.0,
    sample: int = 2000,
    seed: int = 5,
) -> AttackWindowReport:
    """Monte-Carlo attack windows over the ecosystem's revoked certs.

    For each sampled revoked certificate, a compromise is assumed to have
    happened ``admin_reaction_days`` before its actual revocation date
    (that is what triggered the revocation).  ``revocation_propagation_
    days`` models CRL/OCSP response cache lifetimes -- a hard-failing
    client may trust stale "good" information for that long (§2.2: OCSP
    responses are cacheable for days).
    """
    rng = random.Random(seed)
    rows = np.flatnonzero(ecosystem.leaves.revoked_mask()).tolist()
    if not rows:
        raise ValueError("ecosystem contains no revocations")
    if sample < len(rows):
        rows = rng.sample(rows, sample)
    revoked = ecosystem.leaf_records(rows)

    windows: dict[RevocationRegime, list[float]] = {
        regime: [] for regime in RevocationRegime
    }
    # Hard-fail exposure is reaction + staleness, and every window is
    # clamped to the certificate's residual life.
    hard_exposure = staleness_window_days(
        admin_reaction_days, revocation_propagation_days
    )
    for leaf in revoked:
        compromise = leaf.revoked_at - datetime.timedelta(days=admin_reaction_days)

        # Soft-fail: nothing stops the attacker before expiry.
        soft = residual_life_days(leaf.not_after, compromise)
        windows[RevocationRegime.SOFT_FAIL].append(soft)

        # Hard-fail: reaction + propagation, but never past expiry.
        windows[RevocationRegime.HARD_FAIL].append(
            attack_window_days(soft, hard_exposure)
        )

        # Short-lived: the certificate in force at compromise time expires
        # within `short_lived_days`; the administrator stops renewing once
        # they notice, so the window is the remaining slice of the current
        # short certificate plus the reaction time, capped at reaction +
        # one full lifetime.
        residual = rng.uniform(0.0, short_lived_days)
        windows[RevocationRegime.SHORT_LIVED].append(
            attack_window_days(soft, admin_reaction_days + residual)
        )

    return AttackWindowReport(windows=windows, short_lived_days=short_lived_days)
