"""Server-side caching tiers with nextUpdate-aware eviction.

A revocation responder's cache is unusual: every entry carries an
explicit expiry (the pre-signed response's nextUpdate), and an entry
past its nextUpdate is *worse* than a miss -- clients reject stale
proofs.  :class:`NextUpdateCache` therefore evicts the soonest-expiring
entry first (the one with the least remaining useful life), instead of
LRU, and never serves an expired body.

Everything here is tick-clocked and allocation-order free: eviction
order is a pure function of ``(expiry_tick, key)``, so two runs with the
same request stream produce byte-identical cache statistics
(``tests/serve/test_caches.py`` locks the invariants down with seeded
hypothesis properties).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.serve.core import Body

__all__ = ["CacheStats", "CacheTiers", "NextUpdateCache"]


@dataclass
class CacheStats:
    """Running totals for one cache tier."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    expirations: int = 0
    bytes_served: int = 0
    bytes_inserted: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "bytes_served": self.bytes_served,
            "bytes_inserted": self.bytes_inserted,
        }


@dataclass(frozen=True)
class _Entry:
    body: Body
    expires_tick: int


class NextUpdateCache:
    """A bounded cache keyed by artifact, evicting soonest-expiring first.

    ``max_entries`` and/or ``max_bytes`` bound the cache; both ``None``
    means unbounded.  Expiry is in ticks: an entry with
    ``expires_tick <= now_tick`` is never served -- it is dropped on
    access and counted as an expiration plus a miss.

    Eviction uses a lazy heap keyed ``(expires_tick, key)``: stale heap
    records (overwritten or already-removed entries) are skipped on pop,
    and the key tie-break keeps eviction order deterministic.
    """

    def __init__(
        self,
        name: str,
        max_entries: int | None = None,
        max_bytes: int | None = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        self.name = name
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        self._entries: dict[str, _Entry] = {}
        self._heap: list[tuple[int, str]] = []
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def current_bytes(self) -> int:
        return self._bytes

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str, now_tick: int) -> Body | None:
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        if entry.expires_tick <= now_tick:
            self._remove(key, entry)
            self.stats.expirations += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self.stats.bytes_served += len(entry.body)
        return entry.body

    def put(self, key: str, body: Body, expires_tick: int) -> None:
        old = self._entries.get(key)
        if old is not None:
            self._remove(key, old)
        entry = _Entry(body=body, expires_tick=expires_tick)
        self._entries[key] = entry
        self._bytes += len(body)
        heapq.heappush(self._heap, (expires_tick, key))
        self.stats.insertions += 1
        self.stats.bytes_inserted += len(body)
        self._evict()

    def _remove(self, key: str, entry: _Entry) -> None:
        del self._entries[key]
        self._bytes -= len(entry.body)

    def _over_capacity(self) -> bool:
        if self.max_entries is not None and len(self._entries) > self.max_entries:
            return True
        if self.max_bytes is not None and self._bytes > self.max_bytes:
            return True
        return False

    def _evict(self) -> None:
        while self._over_capacity() and self._heap:
            expires_tick, key = heapq.heappop(self._heap)
            entry = self._entries.get(key)
            if entry is None or entry.expires_tick != expires_tick:
                continue  # stale heap record (overwritten or removed)
            self._remove(key, entry)
            self.stats.evictions += 1


class CacheTiers:
    """The named cache tiers one :class:`~repro.serve.core.StatusService`
    runs: one tier per endpoint class that benefits from caching
    (``issuance`` endpoints never cache -- every signing is fresh)."""

    def __init__(self, tiers: dict[str, NextUpdateCache]) -> None:
        self.tiers = dict(tiers)

    @classmethod
    def default(cls) -> "CacheTiers":
        return cls(
            {
                # pre-signed OCSP responses: many small bodies.
                "ocsp": NextUpdateCache("ocsp", max_entries=65_536),
                # CRL shards: few large bodies, bounded by size.
                "crl": NextUpdateCache("crl", max_bytes=64 * 1024 * 1024),
                # nginx-style staple reuse: one staple per certificate.
                "staple": NextUpdateCache("staple", max_entries=65_536),
                # aggregate blobs + deltas: a handful of artifacts.
                "aggregate": NextUpdateCache("aggregate", max_entries=64),
            }
        )

    def for_endpoint(self, endpoint: str) -> NextUpdateCache | None:
        return self.tiers.get(endpoint)

    def stats(self) -> dict[str, CacheStats]:
        return {name: tier.stats for name, tier in sorted(self.tiers.items())}
