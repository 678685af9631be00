"""Michigan-style IPv4 TLS handshake scans: OCSP Stapling measurement.

Reproduces §4.3 and Figure 3.  A single-connection scan under-counts
stapling support because nginx-like servers with a cold staple cache omit
the staple on the first request; repeated connections (the paper probed
20,000 random servers 10 times, 3 s apart) reveal the true support level.

The per-server behaviour is mechanistic: each stapling-enabled server has
a staple-cache state (warm with probability ``1 - staple_cold_probability``
at first probe) and a background refetch that completes after a random
delay, exactly like :class:`repro.revocation.stapling.StapleCache`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.obs import NULL_OBS, Observability
from repro.scan.calibration import Calibration
from repro.scan.ecosystem import Ecosystem

__all__ = ["StaplingProbeResult", "StaplingSummary", "TlsHandshakeScanner"]


@dataclass(frozen=True)
class StaplingProbeResult:
    """Figure 3's series: cumulative stapling observations per probe."""

    probes: int
    #: fraction of stapling-capable servers observed stapling within the
    #: first k probes, indexed 1..probes.
    observed_fraction: list[float]

    @property
    def single_probe_underestimate(self) -> float:
        """How much a single-connection scan under-counts support."""
        return 1.0 - self.observed_fraction[0]


@dataclass(frozen=True)
class StaplingSummary:
    """§4.3's deployment statistics."""

    servers_total: int
    servers_stapling: int
    certs_total: int
    certs_any_stapling: int
    certs_all_stapling: int
    ev_certs_total: int
    ev_certs_any_stapling: int
    ev_certs_all_stapling: int

    @property
    def server_fraction(self) -> float:
        return self.servers_stapling / self.servers_total if self.servers_total else 0.0

    @property
    def cert_any_fraction(self) -> float:
        return self.certs_any_stapling / self.certs_total if self.certs_total else 0.0

    @property
    def cert_all_fraction(self) -> float:
        return self.certs_all_stapling / self.certs_total if self.certs_total else 0.0

    @property
    def ev_any_fraction(self) -> float:
        return (
            self.ev_certs_any_stapling / self.ev_certs_total
            if self.ev_certs_total
            else 0.0
        )

    @property
    def ev_all_fraction(self) -> float:
        return (
            self.ev_certs_all_stapling / self.ev_certs_total
            if self.ev_certs_total
            else 0.0
        )


class TlsHandshakeScanner:
    """Simulates the full-IPv4 TLS handshake scan of March 28, 2015."""

    def __init__(
        self,
        ecosystem: Ecosystem,
        seed: int = 7,
        obs: Observability | None = None,
    ) -> None:
        self.ecosystem = ecosystem
        self.calibration: Calibration = ecosystem.calibration
        self._rng = random.Random(seed)
        self.obs = obs if obs is not None else NULL_OBS

    def summary(self) -> StaplingSummary:
        """One-connection-per-server scan statistics (§4.3), over the
        certificates fresh and advertised at the measurement end."""
        end = self.calibration.measurement_end
        leaves = self.ecosystem.leaves
        scanned = leaves.fresh_mask(end) & leaves.alive_mask(end)
        servers = leaves.server_count[scanned]
        stapling = leaves.stapling[scanned]
        ev = leaves.is_ev[scanned] != 0
        some, every = stapling > 0, stapling == servers
        if self.obs.enabled:
            self.obs.tracer.event("tls_scan.summary", certs=len(servers))
        return StaplingSummary(
            servers_total=int(servers.sum()),
            servers_stapling=int(stapling.sum()),
            certs_total=len(servers),
            certs_any_stapling=int(some.sum()),
            certs_all_stapling=int(every.sum()),
            ev_certs_total=int(ev.sum()),
            ev_certs_any_stapling=int((ev & some).sum()),
            ev_certs_all_stapling=int((ev & every).sum()),
        )

    def probe_experiment(
        self, server_sample: int = 20_000, probes: int = 10
    ) -> StaplingProbeResult:
        """Figure 3: connect repeatedly to stapling-capable servers.

        For each sampled server the cache is warm at the first probe with
        probability ``1 - staple_cold_probability``; cold caches trigger a
        background fetch whose completion delay is drawn uniformly from
        ``staple_fetch_delay_range_s``, so later probes (spaced
        ``probe_interval_s`` apart) progressively observe the staple.
        """
        cal = self.calibration
        rng = self._rng
        if self.obs.enabled:
            self.obs.tracer.event(
                "tls_scan.probe_experiment",
                server_sample=server_sample,
                probes=probes,
            )
        first_seen: list[int] = []  # probe index (1-based) of first staple
        for _ in range(server_sample):
            if rng.random() >= cal.staple_cold_probability:
                first_seen.append(1)
                continue
            delay = rng.uniform(*cal.staple_fetch_delay_range_s)
            # The cold first probe kicks off the fetch at t=0; probe k
            # happens at t=(k-1)*interval and sees the staple once the
            # fetch has completed.
            ready_probe = None
            for k in range(2, probes + 1):
                if (k - 1) * cal.probe_interval_s >= delay:
                    ready_probe = k
                    break
            first_seen.append(ready_probe if ready_probe is not None else probes + 1)
        fractions = []
        for k in range(1, probes + 1):
            fractions.append(
                sum(1 for probe in first_seen if probe <= k) / server_sample
            )
        return StaplingProbeResult(probes=probes, observed_fraction=fractions)
