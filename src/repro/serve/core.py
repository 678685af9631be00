"""The sans-io protocol core of the revocation-status service.

:class:`StatusService` is a pure request/response function: it maps
``(request, sim_tick)`` to response bytes using three ports it never
looks behind --

* :class:`ClockPort` turns ticks into simulated instants,
* :class:`StoragePort` signs/loads response bodies and knows their
  nextUpdate horizon,
* :class:`TransportPort` delivers the bodies to the requesting clients
  (and is where links, faults, and latency live).

A body is a :class:`Body`: ``len()`` is its size and ``bytes()`` its
content.  The core and the cache tiers read only the size, so a storage
may hand out bodies whose bytes are built only on demand.

The core itself performs no I/O, reads no clock, and draws no
randomness, so any transport (the fleet driver, a unit test, a future
ASGI adapter) can drive it and two equal request streams produce
byte-identical responses and statistics.  Adapters for the simulation
live in :mod:`repro.serve.adapters`.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from typing import Protocol

from repro.serve.caches import CacheTiers

__all__ = [
    "Body",
    "ClockPort",
    "ServeRequest",
    "ServiceStats",
    "StatusService",
    "StoragePort",
    "TransportPort",
]


@dataclass(frozen=True)
class ServeRequest:
    """One batched request: ``count`` identical lookups from one client
    cohort in one simulated tick."""

    #: endpoint class ("ocsp", "crl", "staple", "aggregate").
    endpoint: str
    #: artifact key within the endpoint (cert id, CRL URL, blob name).
    key: str
    #: simulated tick the requests arrive in.
    tick: int
    #: registry name of the mechanism being served.
    mechanism: str
    #: how many identical client lookups this request stands for.
    count: int = 1
    #: named link profile of the requesting cohort.
    link: str = "broadband"

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("count must be positive")
        if self.tick < 0:
            raise ValueError("tick must be non-negative")


class ClockPort(Protocol):
    """Ticks -> simulated instants."""

    def at(self, tick: int) -> datetime.datetime: ...


class Body(Protocol):
    """A response body: ``bytes``, or a value that stands for them."""

    def __len__(self) -> int:
        """The body's size in bytes."""
        ...

    def __bytes__(self) -> bytes:
        """The body's content, exactly ``len()`` bytes."""
        ...


class StoragePort(Protocol):
    """Signs (or loads) response bodies and knows their expiry.

    ``body`` returns a :class:`Body`; the caller reads its ``len()`` and
    calls ``bytes()`` only when it needs the content.
    """

    def body(self, endpoint: str, key: str, at: datetime.datetime) -> Body: ...

    def expiry_tick(self, endpoint: str, tick: int) -> int: ...


class TransportPort(Protocol):
    """Delivers response bodies to the requesting clients.

    ``body`` is the :class:`Body` the storage signed or a cache tier
    held; a transport that needs its content (a fault editing it) calls
    ``bytes()``, and otherwise only ``len()``.
    """

    def deliver(
        self,
        request: ServeRequest,
        body: Body,
        at: datetime.datetime,
        source: str,
    ) -> None: ...


@dataclass
class ServiceStats:
    """What the service core itself observed (transport-independent)."""

    requests: int = 0
    presigned_hits: int = 0
    origin_misses: int = 0
    by_endpoint: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "presigned_hits": self.presigned_hits,
            "origin_misses": self.origin_misses,
            "by_endpoint": dict(sorted(self.by_endpoint.items())),
        }


class StatusService:
    """The hexagon: cache tiers in front of origin signing.

    ``handle`` looks the artifact up in the endpoint's cache tier,
    falls back to the storage port (one origin signing) on a miss,
    inserts the fresh body with its nextUpdate expiry, and hands the
    body to the transport.  All branching is on request content and
    tick arithmetic -- nothing else.
    """

    def __init__(
        self,
        storage: StoragePort,
        clock: ClockPort,
        transport: TransportPort,
        caches: CacheTiers | None = None,
    ) -> None:
        self.storage = storage
        self.clock = clock
        self.transport = transport
        self.caches = caches if caches is not None else CacheTiers.default()
        self.stats = ServiceStats()

    def handle(self, request: ServeRequest) -> Body:
        at = self.clock.at(request.tick)
        self.stats.requests += request.count
        self.stats.by_endpoint[request.endpoint] = (
            self.stats.by_endpoint.get(request.endpoint, 0) + request.count
        )
        tier = self.caches.for_endpoint(request.endpoint)
        body = tier.get(request.key, request.tick) if tier is not None else None
        if body is None:
            body = self.storage.body(request.endpoint, request.key, at)
            if tier is not None:
                tier.put(
                    request.key,
                    body,
                    self.storage.expiry_tick(request.endpoint, request.tick),
                )
            self.stats.origin_misses += request.count
            source = "origin"
        else:
            self.stats.presigned_hits += request.count
            source = "presigned"
        self.transport.deliver(request, body, at, source)
        return body
