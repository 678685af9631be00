"""Seeded, deterministic fault injection for the simulated network.

The paper's §6.1 failure modes (NXDOMAIN, HTTP 404, no response, OCSP
``unknown``) are static, per-URL switches: an endpoint is either healthy
or broken for the whole run.  Follow-up measurement work (Korzhitskii &
Carlsson; Chuat et al., see PAPERS.md) shows real responder availability
is probabilistic and time-varying, so this module adds failure
*schedules*: a :class:`FaultPlan` attaches :class:`FaultSpec` rules to
URL patterns, and :meth:`FaultPlan.decide` turns each request into a
:class:`FaultDecision` the transport applies -- fail it, delay it,
corrupt or truncate the body, or serve a stale (past-``nextUpdate``)
payload.

Determinism: every random draw comes from a per-URL stream seeded with
``(plan seed, url)``, consumed in request order.  Two runs with the same
seed issue the same request sequence per URL and therefore see the same
faults, independent of how requests to *different* URLs interleave (so
parallel experiment workers stay reproducible too).
"""

from __future__ import annotations

import datetime
import enum
import random
from dataclasses import dataclass, field
from typing import SupportsBytes

from repro.net.http import split_url
from repro.net.transport import FailureMode

__all__ = [
    "FaultDecision",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "PROFILES",
    "plan_from_profile",
]


class FaultKind(enum.Enum):
    """Injectable behaviours beyond the static §6.1 switches."""

    #: fail the request with ``mode`` with probability ``probability``.
    FLAKY = "flaky"
    #: fail every request inside the ``window`` with ``mode``.
    OUTAGE = "outage"
    #: add ``extra_latency`` to the response (slow responder).
    SLOW = "slow"
    #: serve only the first ``truncate_fraction`` of the body.
    TRUNCATE = "truncate"
    #: flip one random bit somewhere in the body.
    CORRUPT = "corrupt"
    #: serve the payload the endpoint published ``stale_by`` ago, so its
    #: nextUpdate window has already closed (expired CRL / OCSP response).
    STALE = "stale"


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule.

    ``probability`` gates every kind (1.0 = always when applicable);
    ``window`` restricts any kind to a simulated-time interval and is
    what *defines* an OUTAGE.
    """

    kind: FaultKind
    probability: float = 1.0
    mode: FailureMode = FailureMode.NO_RESPONSE
    window: tuple[datetime.datetime, datetime.datetime] | None = None
    extra_latency: datetime.timedelta = datetime.timedelta(milliseconds=500)
    truncate_fraction: float = 0.5
    stale_by: datetime.timedelta = datetime.timedelta(days=30)

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if not 0.0 <= self.truncate_fraction < 1.0:
            raise ValueError("truncate_fraction must be in [0, 1)")
        if self.kind is FaultKind.OUTAGE and self.window is None:
            raise ValueError("OUTAGE requires a time window")
        if self.window is not None and self.window[0] >= self.window[1]:
            raise ValueError("window start must precede window end")

    def active_at(self, at: datetime.datetime) -> bool:
        if self.window is None:
            return True
        return self.window[0] <= at < self.window[1]


@dataclass
class FaultDecision:
    """What the transport should do to one request."""

    mode: FailureMode = FailureMode.NONE
    extra_latency: datetime.timedelta = datetime.timedelta(0)
    #: serve the endpoint's state as of this (earlier) instant.
    serve_at: datetime.datetime | None = None
    #: applied to the response body, in rule order.
    body_edits: list = field(default_factory=list)
    #: kinds that actually triggered, for accounting/tests.
    triggered: list[FaultKind] = field(default_factory=list)

    @property
    def is_noop(self) -> bool:
        return not self.triggered

    def edit_body(self, body: SupportsBytes) -> SupportsBytes:
        """``body`` with the edits applied, in rule order.

        ``body`` is ``bytes`` or any value whose ``bytes()`` is its
        content; it is converted only when there are edits, and comes
        back unchanged otherwise.
        """
        if not self.body_edits:
            return body
        body = bytes(body)
        for edit in self.body_edits:
            body = edit(body)
        return body


def _truncate(fraction: float):
    def edit(body: bytes) -> bytes:
        if not body:
            return body
        return body[: max(1, int(len(body) * fraction))]

    return edit


def _corrupt(byte_pick: float, bit: int):
    def edit(body: bytes) -> bytes:
        if not body:
            return body
        index = min(int(byte_pick * len(body)), len(body) - 1)
        mutated = bytearray(body)
        mutated[index] ^= 1 << bit
        return bytes(mutated)

    return edit


class FaultPlan:
    """An ordered set of ``(url pattern, FaultSpec)`` rules.

    Patterns: ``"*"`` matches everything, ``"host/*"`` matches every path
    on a host, anything else must equal the request's ``host+path``.
    Rules are evaluated in insertion order and *stack*: a request can be
    both slowed and truncated; the first failing ``mode`` wins.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rules: list[tuple[str, FaultSpec]] = []
        self._streams: dict[str, random.Random] = {}

    def add(self, pattern: str, spec: FaultSpec) -> "FaultPlan":
        self._rules.append((pattern, spec))
        return self

    @property
    def rules(self) -> tuple[tuple[str, FaultSpec], ...]:
        return tuple(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def _matches(self, pattern: str, host: str, path: str) -> bool:
        if pattern == "*":
            return True
        if pattern.endswith("/*"):
            return host == pattern[:-2]
        try:
            phost, ppath = split_url(pattern)
        except ValueError:
            return f"{host}{path}" == pattern
        return (host, path) == (phost, ppath)

    def _stream(self, url_key: str) -> random.Random:
        stream = self._streams.get(url_key)
        if stream is None:
            stream = random.Random(f"{self.seed}/{url_key}")
            self._streams[url_key] = stream
        return stream

    def reset(self) -> None:
        """Forget per-URL stream state (a fresh run from the same seed)."""
        self._streams.clear()

    def applies_to(self, url: str) -> bool:
        """Whether any rule matches ``url``.  When none does, no
        decision on it draws or triggers: every one is a no-op."""
        if not self._rules:
            return False
        host, path = split_url(url)
        return any(self._matches(pattern, host, path) for pattern, _ in self._rules)

    def decide(self, url: str, at: datetime.datetime) -> FaultDecision:
        """Consume one decision for one request, in request order.

        The URL's stream is created on the first matching rule, and
        every matching rule takes the same draws whether or not it
        fires, so the stream position depends only on the number of
        requests, not on which windows were active or which rules fired.
        """
        decision = FaultDecision()
        if not self._rules:
            return decision
        host, path = split_url(url)
        stream = None
        for pattern, spec in self._rules:
            if not self._matches(pattern, host, path):
                continue
            if stream is None:
                stream = self._stream(f"{host}{path}")
            draw = stream.random()
            if spec.kind is FaultKind.CORRUPT:
                byte_pick, bit = stream.random(), stream.randrange(8)
            if not spec.active_at(at) or draw >= spec.probability:
                continue
            decision.triggered.append(spec.kind)
            if spec.kind in (FaultKind.FLAKY, FaultKind.OUTAGE):
                if decision.mode is FailureMode.NONE:
                    decision.mode = spec.mode
            elif spec.kind is FaultKind.SLOW:
                decision.extra_latency += spec.extra_latency
            elif spec.kind is FaultKind.TRUNCATE:
                decision.body_edits.append(_truncate(spec.truncate_fraction))
            elif spec.kind is FaultKind.CORRUPT:
                decision.body_edits.append(_corrupt(byte_pick, bit))
            elif spec.kind is FaultKind.STALE:
                rewind = at - spec.stale_by
                if decision.serve_at is None or rewind < decision.serve_at:
                    decision.serve_at = rewind
        return decision


#: Named profiles for the CLI (``--fault-profile``) and CI fault matrix.
#: Each entry is a list of (pattern, FaultSpec) applied to every endpoint.
PROFILES: dict[str, list[tuple[str, FaultSpec]]] = {
    "none": [],
    # Mild, realistic degradation: occasional timeouts and slow responses.
    "flaky": [
        ("*", FaultSpec(FaultKind.FLAKY, probability=0.10)),
        (
            "*",
            FaultSpec(
                FaultKind.SLOW,
                probability=0.20,
                extra_latency=datetime.timedelta(milliseconds=250),
            ),
        ),
    ],
    # Everything at once: mixed failure modes, big latency spikes, and
    # malformed / stale payloads.
    "chaos": [
        ("*", FaultSpec(FaultKind.FLAKY, probability=0.05, mode=FailureMode.NXDOMAIN)),
        ("*", FaultSpec(FaultKind.FLAKY, probability=0.05, mode=FailureMode.HTTP_404)),
        ("*", FaultSpec(FaultKind.FLAKY, probability=0.10)),
        (
            "*",
            FaultSpec(
                FaultKind.SLOW,
                probability=0.30,
                extra_latency=datetime.timedelta(milliseconds=750),
            ),
        ),
        ("*", FaultSpec(FaultKind.TRUNCATE, probability=0.05)),
        ("*", FaultSpec(FaultKind.CORRUPT, probability=0.05)),
        ("*", FaultSpec(FaultKind.STALE, probability=0.05)),
    ],
}


def plan_from_profile(name: str, seed: int = 0) -> FaultPlan:
    """Build the named :data:`PROFILES` entry as a seeded plan."""
    try:
        rules = PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown fault profile {name!r}; known: {sorted(PROFILES)}"
        ) from None
    plan = FaultPlan(seed=seed)
    for pattern, spec in rules:
        plan.add(pattern, spec)
    return plan
