"""The synthetic client fleet: browser populations as traffic generators.

Millions of sessions cannot be simulated one by one, so the fleet drives
the service with *batched representative sessions*: sessions are
apportioned over browser cohorts (derived from the §6 browser matrix:
one cohort per engine, mobile engines on the constrained link and --
per the paper's headline -- checking nothing), then over simulated
ticks by a seeded activity curve, and each ``(cohort, tick)`` cell is
played by a few representative sessions whose request stream is scaled
by the number of clients the representative stands for.

Every random draw comes from :func:`repro.scan.streams.substream` keyed
``(seed, "serve", mechanism, cohort, tick, rep)``, so the traffic --
and therefore the serving report -- is a pure function of
``(corpus, mechanism, FleetConfig)``: same seed, byte-identical report.

Apportionment is largest-remainder (:func:`apportion`), the same
deterministic scheme the shard generator uses for shard sizing: exact
totals, no drift, no float accumulation order dependence.
"""

from __future__ import annotations

import datetime
import itertools
from dataclasses import dataclass, field

from repro.browsers.registry import all_browsers
from repro.mechanisms.base import (
    MechanismHost,
    RevocationMechanism,
    SessionState,
)
from repro.net.faults import FaultPlan
from repro.obs import NULL_OBS, Observability
from repro.scan.records import LeafRecord
from repro.scan.streams import substream
from repro.serve.adapters import FleetTransport, MechanismStorage, TickClock
from repro.serve.caches import CacheTiers
from repro.serve.core import ServeRequest, StatusService
from repro.serve.report import MechanismServingReport

__all__ = [
    "ClientFleet",
    "Cohort",
    "FleetConfig",
    "ISSUED_CERT_BYTES",
    "apportion",
    "default_cohorts",
]

#: encoded size of one issued certificate -- the unit of short-lived
#: re-issuance signing load (typical DER leaf, ~1.2 KB).
ISSUED_CERT_BYTES = 1200


def apportion(total: int, weights: list[float]) -> list[int]:
    """Split ``total`` into integer shares proportional to ``weights``.

    Largest-remainder: exact sum, deterministic ties (earlier index
    wins), zero weights get zero.
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    scale = sum(weights)
    if total == 0 or scale == 0 or not weights:
        return [0] * len(weights)
    quotas = [total * w / scale for w in weights]
    shares = [int(q) for q in quotas]
    order = sorted(
        range(len(weights)), key=lambda i: (shares[i] - quotas[i], i)
    )
    for i in order[: total - sum(shares)]:
        shares[i] += 1
    return shares


@dataclass(frozen=True)
class Cohort:
    """One client population: an engine family on one link profile."""

    name: str
    #: relative share of the fleet's sessions.
    share: float
    #: named :data:`~repro.net.transport.LINK_PROFILES` entry.
    link: str = "broadband"
    #: site visits per browsing session.
    sites_per_session: int = 10
    #: does this population perform revocation checks at all?  Mobile
    #: cohorts default to False -- the paper's §6.4 headline.
    checking: bool = True


def default_cohorts() -> tuple[Cohort, ...]:
    """Cohorts derived from the §6 browser matrix: one per engine
    family, weighted by how many (version, OS) combinations the matrix
    carries, mobile families on the constrained link and non-checking."""
    counts: dict[str, int] = {}
    mobile: dict[str, bool] = {}
    for browser in all_browsers():
        counts[browser.name] = counts.get(browser.name, 0) + 1
        mobile[browser.name] = browser.is_mobile
    cohorts = []
    for name, count in counts.items():  # dict preserves matrix order
        if mobile[name]:
            cohorts.append(
                Cohort(
                    name=name,
                    share=float(count),
                    link="mobile",
                    sites_per_session=6,
                    checking=False,
                )
            )
        else:
            cohorts.append(Cohort(name=name, share=float(count)))
    return tuple(cohorts)


@dataclass(frozen=True)
class FleetConfig:
    """Everything that shapes one fleet run (hashable by value, so two
    equal configs against the same corpus give byte-identical reports)."""

    sessions: int = 1_000_000
    ticks: int = 48
    tick_seconds: int = 900
    #: representative sessions played per (cohort, tick) cell.
    representatives: int = 3
    #: popularity catalog: the top-N alive certificates by Alexa rank.
    catalog_size: int = 4096
    seed: int = 20151028
    fault_plan: FaultPlan | None = None
    cohorts: tuple[Cohort, ...] = field(default_factory=default_cohorts)

    def __post_init__(self) -> None:
        if self.sessions < 0:
            raise ValueError("sessions must be non-negative")
        if self.ticks < 1 or self.tick_seconds < 1:
            raise ValueError("ticks and tick_seconds must be positive")
        if self.representatives < 1:
            raise ValueError("representatives must be positive")
        if self.catalog_size < 1:
            raise ValueError("catalog_size must be positive")
        if not self.cohorts:
            raise ValueError("at least one cohort required")

    @property
    def sim_days(self) -> float:
        return self.ticks * self.tick_seconds / 86_400


class ClientFleet:
    """Drives one mechanism's service with the configured populations."""

    def __init__(
        self,
        host: MechanismHost,
        mechanism: RevocationMechanism,
        config: FleetConfig,
        obs: Observability = NULL_OBS,
    ) -> None:
        self.host = host
        self.mechanism = mechanism
        self.config = config
        self.obs = obs
        self.model = mechanism.serve_model()
        end = host.calibration.measurement_end
        self.clock = TickClock(
            epoch=datetime.datetime.combine(end, datetime.time()),
            tick_seconds=config.tick_seconds,
        )
        self.storage = MechanismStorage(mechanism, self.clock)
        self.transport = FleetTransport(plan=config.fault_plan)
        self.caches = CacheTiers.default()
        self.service = StatusService(
            storage=self.storage,
            clock=self.clock,
            transport=self.transport,
            caches=self.caches,
        )

    # -- traffic shape -----------------------------------------------------

    def _catalog(self) -> tuple[list[LeafRecord], list[float]]:
        """The popularity catalog and its cumulative sampling weights."""
        end = self.host.calibration.measurement_end
        alive = self.host.ecosystem.alive_leaves(end)
        ranked = [leaf for leaf in alive if leaf.alexa_rank is not None]
        ranked.sort(key=lambda leaf: (leaf.alexa_rank, leaf.cert_id))
        catalog = ranked[: self.config.catalog_size]
        if not catalog:
            catalog = sorted(alive, key=lambda leaf: leaf.cert_id)
            catalog = catalog[: self.config.catalog_size]
            weights = [1.0] * len(catalog)
        else:
            weights = [1.0 / leaf.alexa_rank for leaf in catalog]
        return catalog, list(itertools.accumulate(weights))

    def _tick_shares(self, cohort: Cohort, sessions: int) -> list[int]:
        """Sessions per tick: a seeded activity curve, exact total."""
        rng = substream(
            self.config.seed, "serve", self.mechanism.name, cohort.name,
            "activity",
        )
        weights = [0.5 + rng.random() for _ in range(self.config.ticks)]
        return apportion(sessions, weights)

    def _visit_requests(
        self, leaf: LeafRecord, cost
    ) -> tuple[tuple[str, str], ...]:
        """Map one client-side check onto the server-side requests it
        causes -- the byte-parity seam the conformance harness pins."""
        if not cost.fetched:
            if (
                self.model.endpoint == "staple"
                and not cost.cache_hit
                and self.mechanism.covers(leaf)
            ):
                # the web server replays its cached staple/proof into
                # the handshake; refreshing it hits the staple tier.
                return (("staple", f"cert/{leaf.cert_id}"),)
            return ()
        if self.model.endpoint == "crl" and leaf.crl_url is not None:
            return (("crl", leaf.crl_url),)
        # every other fetch is one pre-signed OCSP response (including
        # the CRL and stapling mechanisms' OCSP fallbacks).
        return (("ocsp", f"cert/{leaf.cert_id}"),)

    # -- the run -----------------------------------------------------------

    def run(self) -> MechanismServingReport:
        config = self.config
        with self.obs.tracer.span(
            "serve_fleet",
            mechanism=self.mechanism.name,
            sessions=config.sessions,
            ticks=config.ticks,
        ):
            cohort_sessions = apportion(
                config.sessions, [c.share for c in config.cohorts]
            )
            if self.model.endpoint in ("ocsp", "crl", "staple"):
                self._run_request_driven(cohort_sessions)
            elif self.model.endpoint == "aggregate":
                self._run_aggregate(cohort_sessions)
            elif self.model.endpoint == "issuance":
                self._run_issuance()
            self.transport.stats.publish(
                self.obs.metrics,
                component="serve",
                mechanism=self.mechanism.name,
            )
            self.obs.metrics.counter(
                "serve.requests", mechanism=self.mechanism.name
            ).inc(self.service.stats.requests)
        return self._report()

    def _run_request_driven(self, cohort_sessions: list[int]) -> None:
        catalog, cum_weights = self._catalog()
        if not catalog:
            return
        for cohort, sessions in zip(self.config.cohorts, cohort_sessions):
            if not cohort.checking or sessions == 0:
                continue
            for tick, clients in enumerate(self._tick_shares(cohort, sessions)):
                if clients == 0:
                    continue
                reps = min(clients, self.config.representatives)
                for rep, stands_for in enumerate(
                    apportion(clients, [1.0] * reps)
                ):
                    self._play_session(
                        cohort, tick, rep, stands_for, catalog, cum_weights
                    )

    def _play_session(
        self,
        cohort: Cohort,
        tick: int,
        rep: int,
        stands_for: int,
        catalog: list[LeafRecord],
        cum_weights: list[float],
    ) -> None:
        rng = substream(
            self.config.seed, "serve", self.mechanism.name, cohort.name,
            tick, rep,
        )
        sites = rng.choices(
            catalog, cum_weights=cum_weights, k=cohort.sites_per_session
        )
        session = SessionState()
        for leaf in sites:
            cost = self.mechanism.check_cost(leaf, session)
            for endpoint, key in self._visit_requests(leaf, cost):
                self.service.handle(
                    ServeRequest(
                        endpoint=endpoint,
                        key=key,
                        tick=tick,
                        mechanism=self.mechanism.name,
                        count=stands_for,
                        link=cohort.link,
                    )
                )

    def _run_aggregate(self, cohort_sessions: list[int]) -> None:
        pull_interval = self.model.pull_interval_days or 1.0
        for cohort, sessions in zip(self.config.cohorts, cohort_sessions):
            if not cohort.checking or sessions == 0:
                continue
            pulls = round(sessions * self.config.sim_days / pull_interval)
            tick_pulls = apportion(pulls, [1.0] * self.config.ticks)
            # one bootstrap fetch of the full artifact per cohort ...
            self.service.handle(
                ServeRequest(
                    endpoint="aggregate",
                    key="full",
                    tick=0,
                    mechanism=self.mechanism.name,
                    count=1,
                    link=cohort.link,
                )
            )
            # ... then periodic delta pulls on the updater cadence.
            for tick, count in enumerate(tick_pulls):
                if count == 0:
                    continue
                self.service.handle(
                    ServeRequest(
                        endpoint="aggregate",
                        key="delta",
                        tick=tick,
                        mechanism=self.mechanism.name,
                        count=count,
                        link=cohort.link,
                    )
                )

    def _run_issuance(self) -> None:
        """Short-lived certificates: no endpoint, pure signing load --
        every alive certificate re-issued once per lifetime."""
        end = self.host.calibration.measurement_end
        alive = int(self.host.ecosystem.leaf_index.alive_mask(end).sum())
        lifetime = self.model.presign_interval_days
        signings = round(alive * self.config.sim_days / lifetime)
        self.storage.sign_offline(signings, ISSUED_CERT_BYTES)

    def _report(self) -> MechanismServingReport:
        return MechanismServingReport(
            mechanism=self.mechanism.name,
            title=self.mechanism.title,
            endpoint=self.model.endpoint,
            sessions=self.config.sessions,
            ticks=self.config.ticks,
            tick_seconds=self.config.tick_seconds,
            service=self.service.stats.as_dict(),
            cache_stats=self.caches.stats(),
            fetch=self.transport.stats,
            latency=self.transport.latency,
            origin_signings=self.storage.signings,
            origin_bytes=self.storage.signed_bytes,
        )
