"""Client-side cost of revocation checking for a browsing session.

Quantifies the §5.2 trade-off browsers face: a user who visits N HTTPS
sites pays bytes and blocking latency for every revocation check their
browser performs.  The model combines the ecosystem's real CRL sizes,
OCSP response sizes, the link profile, and a cache with CRL/OCSP
expiry -- the exact levers the paper argues over.

Per-check accounting is delegated to the pluggable revocation
mechanisms (:mod:`repro.mechanisms`, docs/MECHANISMS.md):
:meth:`SessionCostModel.session_for` prices a session under any
registered mechanism, and :meth:`SessionCostModel.compare_mechanisms`
prices one sampled session under a whole suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.mechanisms import RevocationMechanism, SessionState
from repro.net.transport import LinkProfile
from repro.scan.ecosystem import Ecosystem
from repro.scan.records import LeafRecord

__all__ = ["SessionCost", "SessionCostModel"]


@dataclass(frozen=True)
class SessionCost:
    """Totals for one simulated browsing session."""

    sites: int
    checks: int
    bytes_downloaded: int
    blocking_latency_s: float
    cache_hits: int

    @property
    def bytes_per_site(self) -> float:
        return self.bytes_downloaded / self.sites if self.sites else 0.0

    @property
    def latency_per_site_ms(self) -> float:
        return 1000.0 * self.blocking_latency_s / self.sites if self.sites else 0.0


class SessionCostModel:
    """Estimates a browsing session's revocation-checking overhead.

    The client behaviour is a registered mechanism: ``"crl"`` downloads
    the leaf's CRL (cacheable ~24 h), ``"ocsp"`` sends one query per leaf
    (cacheable ~4 days), ``"ocsp-stapling"`` fetches nothing when the
    site staples and falls back to OCSP otherwise (the paper's
    recommended end state).  :meth:`compare_mechanisms` adds the
    mobile-browser regime, ``"none"``: no checks at all.

    The model itself satisfies :class:`repro.mechanisms.MechanismHost`
    for the pull/handshake mechanisms, so it can price them without a
    full measurement study.
    """

    def __init__(
        self,
        ecosystem: Ecosystem,
        profile: LinkProfile | None = None,
        seed: int = 3,
    ) -> None:
        self.ecosystem = ecosystem
        self.profile = profile or LinkProfile()
        self._rng = random.Random(seed)

    @property
    def calibration(self):
        """MechanismHost: the ecosystem's calibration."""
        return self.ecosystem.calibration

    def sample_sites(self, count: int) -> list[LeafRecord]:
        """Popularity-weighted site sample (Alexa-ranked sites repeat):
        rows are drawn, then only the picks are decoded."""
        end = self.ecosystem.calibration.measurement_end
        leaves = self.ecosystem.leaves
        alive = leaves.alive_mask(end)
        rows = np.flatnonzero(alive & (leaves.alexa != 0))
        if not len(rows):
            rows = np.flatnonzero(alive)
        weights = [1.0 / rank if rank else 1.0 for rank in leaves.alexa[rows].tolist()]
        picks = self._rng.choices(rows.tolist(), weights=weights, k=count)
        return self.ecosystem.leaf_records(picks)

    def session_for(
        self, sites: list[LeafRecord], mechanism: RevocationMechanism
    ) -> SessionCost:
        """Price one session under any registered mechanism."""
        checks = 0
        nbytes = 0
        latency = 0.0
        cache_hits = 0
        state = SessionState()
        for leaf in sites:
            cost = mechanism.check_cost(leaf, state)
            if cost.cache_hit:
                cache_hits += 1
                continue
            for size in cost.fetched:
                checks += 1
                nbytes += size
                latency += self.profile.transfer_time(size).total_seconds()
        return SessionCost(
            sites=len(sites),
            checks=checks,
            bytes_downloaded=nbytes,
            blocking_latency_s=latency,
            cache_hits=cache_hits,
        )

    def compare_mechanisms(
        self,
        mechanisms: list[RevocationMechanism],
        site_count: int = 100,
    ) -> dict[str, SessionCost]:
        """One sampled session priced under every given mechanism.

        Pass ``study.mechanism_suite`` to sweep the registry; the
        ``"none"`` baseline row (no checks at all) is always appended.
        """
        sites = self.sample_sites(site_count)
        costs = {
            mechanism.name: self.session_for(sites, mechanism)
            for mechanism in mechanisms
        }
        costs["none"] = SessionCost(
            sites=len(sites),
            checks=0,
            bytes_downloaded=0,
            blocking_latency_s=0.0,
            cache_hits=0,
        )
        return costs
