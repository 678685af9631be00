"""Simulation adapters behind the service core's ports.

The core (:mod:`repro.serve.core`) is sans-io; these adapters plug the
simulation into its three ports:

* :class:`TickClock` -- tick arithmetic over a fixed epoch (ClockPort);
* :class:`MechanismStorage` -- signs deterministic synthetic bodies
  sized from the mechanism's :meth:`serve_model` and the ecosystem's
  exact CRL sizing, and accounts every origin signing (StoragePort);
  a body is a :class:`SynthBody`, ``(tag, size)``, whose bytes are
  built only if something asks for them;
* :class:`FleetTransport` -- applies the seeded fault plan
  (:mod:`repro.net.faults`) and the cohort's :class:`LinkProfile` to
  each batched delivery, accounting costs into a transport-level
  :class:`~repro.net.fetcher.FetchStats` plus a latency histogram
  (TransportPort).

Fault draws are taken per sub-batch (at most :data:`FAULT_SUBBATCHES`
per request) in request order, and the request stream itself is
fault-independent -- so the per-URL fault streams line up across runs
and the triggered fault sets nest as probability rises, which is what
makes the conformance harness's monotone-p99 check meaningful.  A
delivery whose URL no rule matches takes no draws at all, so it is
accounted in one step instead of per sub-batch.
"""

from __future__ import annotations

import datetime
import hashlib
from dataclasses import dataclass

from repro.mechanisms.base import OCSP_RESPONSE_BYTES, RevocationMechanism
from repro.net.faults import FaultPlan
from repro.net.fetcher import FetchStats
from repro.net.transport import LINK_PROFILES, FailureMode, LinkProfile
from repro.serve.core import Body, ServeRequest
from repro.serve.report import LatencyHistogram

__all__ = [
    "FAULT_SUBBATCHES",
    "FleetTransport",
    "MechanismStorage",
    "SynthBody",
    "TickClock",
    "split_batch",
    "synth_body",
]

#: fault decisions sampled per batched request: one decision per
#: sub-batch keeps the per-URL stream consumption bounded and
#: independent of how many clients the batch stands for.
FAULT_SUBBATCHES = 8

_MS = datetime.timedelta(milliseconds=1)


class TickClock:
    """Fixed-epoch tick clock; ``tick_seconds`` per tick."""

    def __init__(
        self, epoch: datetime.datetime, tick_seconds: int = 900
    ) -> None:
        if tick_seconds < 1:
            raise ValueError("tick_seconds must be positive")
        self.epoch = epoch
        self.tick_seconds = tick_seconds

    def at(self, tick: int) -> datetime.datetime:
        return self.epoch + datetime.timedelta(seconds=tick * self.tick_seconds)

    def ticks_for_days(self, days: float) -> int:
        return max(1, round(days * 86_400 / self.tick_seconds))


def synth_body(tag: str, size: int) -> bytes:
    """A deterministic pseudo-body of exactly ``size`` bytes."""
    if size < 0:
        raise ValueError("size must be non-negative")
    if size == 0:
        return b""
    seed = hashlib.sha256(tag.encode("utf-8")).digest()
    reps = -(-size // len(seed))
    return (seed * reps)[:size]


@dataclass(frozen=True)
class SynthBody:
    """A synthetic body as ``(tag, size)``: ``len()`` is ``size``, and
    ``bytes()`` builds ``synth_body(tag, size)``.

    The caches, the service and the transport read only the size, so a
    body's bytes are built only when a fault edits them.
    """

    tag: str
    size: int

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("size must be non-negative")

    def __len__(self) -> int:
        return self.size

    def __bytes__(self) -> bytes:
        return synth_body(self.tag, self.size)


class MechanismStorage:
    """StoragePort over one mechanism's :class:`ServeModel`.

    Every ``body`` call is one origin signing (a cache miss reached the
    signer); ``sign_offline`` accounts signings with no online endpoint
    (short-lived re-issuance).
    """

    def __init__(
        self, mechanism: RevocationMechanism, clock: TickClock
    ) -> None:
        self.mechanism = mechanism
        self.model = mechanism.serve_model()
        self.clock = clock
        self.signings = 0
        self.signed_bytes = 0

    def body(self, endpoint: str, key: str, at: datetime.datetime) -> SynthBody:
        size = self._size(endpoint, key, at.date())
        self.signings += 1
        self.signed_bytes += size
        return SynthBody(f"{self.mechanism.name}/{endpoint}/{key}", size)

    def expiry_tick(self, endpoint: str, tick: int) -> int:
        return tick + self.clock.ticks_for_days(self.model.presign_interval_days)

    def sign_offline(self, signings: int, bytes_each: int) -> None:
        if signings < 0 or bytes_each < 0:
            raise ValueError("offline signing counts must be non-negative")
        self.signings += signings
        self.signed_bytes += signings * bytes_each

    def _size(self, endpoint: str, key: str, on: datetime.date) -> int:
        if endpoint == "crl":
            return self.mechanism.ecosystem.crl_for_url(key).size_bytes(on)
        if endpoint == "aggregate":
            full = self.mechanism.payload_bytes(on)
            if key == "full":
                return max(1, full)
            return max(64, int(full * self.model.delta_fraction))
        if self.model.response_bytes is not None:
            return self.model.response_bytes
        if endpoint == "ocsp":
            # OCSP fallback traffic from non-OCSP models (e.g. the CRL
            # mechanism on CRL-less leaves) is always one pre-signed
            # response, never the mechanism's own artifact.
            return OCSP_RESPONSE_BYTES
        # staple with unsized model: the mechanism's artifact
        # (postcertificate inclusion proofs).
        return max(1, self.mechanism.payload_bytes(on))


def split_batch(count: int, parts: int) -> list[int]:
    """Split ``count`` into ``parts`` near-equal positive chunks
    (largest-remainder; deterministic)."""
    parts = max(1, min(parts, count))
    base, extra = divmod(count, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


class FleetTransport:
    """TransportPort applying faults and link cost to each delivery.

    Each batched request is split into at most :data:`FAULT_SUBBATCHES`
    sub-batches; each sub-batch consumes exactly one fault decision for
    the request's synthetic URL
    (``http://<endpoint>.<mechanism>.serving/<key>``), so per-URL
    streams advance purely with request count.  When no rule of the
    plan matches that URL (always, under an empty plan), every decision
    would be a no-op, and the delivery is accounted once for the whole
    batch with the same totals.
    """

    def __init__(
        self,
        plan: FaultPlan | None = None,
        links: dict[str, LinkProfile] | None = None,
        timeout: datetime.timedelta = datetime.timedelta(seconds=10),
    ) -> None:
        self.plan = plan if plan is not None else FaultPlan()
        self.links = dict(links) if links is not None else dict(LINK_PROFILES)
        self.timeout = timeout
        self.stats = FetchStats()
        self.latency = LatencyHistogram()

    def deliver(
        self,
        request: ServeRequest,
        body: Body,
        at: datetime.datetime,
        source: str,
    ) -> None:
        link = self.links[request.link]
        url = (
            f"http://{request.endpoint}.{request.mechanism}.serving"
            f"/{request.key}"
        )
        shares = split_batch(request.count, FAULT_SUBBATCHES)
        if not self.plan.applies_to(url):
            latency = link.transfer_time(len(body))
            self.stats.fetches += request.count
            self.stats.attempts += request.count
            self.stats.successes += request.count
            self.stats.bytes_downloaded += len(body) * request.count
            self.stats.latency_total += latency * request.count
            # one float addition per share, as the per-sub-batch loop makes
            self.latency.observe_shares(latency / _MS, shares)
            return
        for sub in shares:
            decision = self.plan.decide(url, at)
            self.stats.fetches += sub
            self.stats.attempts += sub
            if decision.mode is FailureMode.NO_RESPONSE:
                self.stats.failures += sub
                self.stats.timeouts += sub
                self._observe(self.timeout + decision.extra_latency, sub)
            elif decision.mode is FailureMode.NXDOMAIN:
                self.stats.failures += sub
                self.stats.dns_failures += sub
                self._observe(link.rtt, sub)
            elif decision.mode is FailureMode.HTTP_404:
                self.stats.failures += sub
                self.stats.http_errors += sub
                self._observe(link.rtt + decision.extra_latency, sub)
            else:
                delivered = decision.edit_body(body)
                if len(delivered) < len(body):
                    # truncated mid-transfer: the client downloaded the
                    # prefix but cannot parse it.
                    self.stats.parse_errors += sub
                self.stats.successes += sub
                self.stats.bytes_downloaded += len(delivered) * sub
                self._observe(
                    link.transfer_time(len(delivered)) + decision.extra_latency,
                    sub,
                )

    def _observe(self, latency: datetime.timedelta, count: int) -> None:
        self.stats.latency_total += latency * count
        self.latency.observe(latency / _MS, count)
