"""Serving-side measurement: latency quantiles and per-mechanism report.

The metrics registry's summary instrument tracks count/total/min/max
only; tail latency (p99/p999) needs a distribution, so
:class:`LatencyHistogram` keeps weighted counts in fixed geometric
buckets -- deterministic, mergeable, and O(1) per batched observation
regardless of how many clients the batch stands for.

:class:`MechanismServingReport` is the unit the ``serving`` experiment
renders and digests (one ``render_block`` per registered mechanism,
mirroring the ``mechanisms`` experiment's golden layout).
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.report import format_bytes, format_table
from repro.net.fetcher import FetchStats
from repro.serve.caches import CacheStats

__all__ = [
    "LatencyHistogram",
    "MechanismServingReport",
    "render_serving_report",
]


def _bucket_bounds() -> tuple[float, ...]:
    """Geometric upper bounds in ms: 0.5 ms to ~2 min, ~19% steps."""
    bounds = []
    upper = 0.5
    while upper < 120_000.0:
        bounds.append(upper)
        upper *= 2 ** 0.25
    bounds.append(float("inf"))
    return tuple(bounds)


class LatencyHistogram:
    """Weighted latency distribution in fixed geometric buckets."""

    BOUNDS: tuple[float, ...] = _bucket_bounds()

    def __init__(self) -> None:
        self.counts = [0] * len(self.BOUNDS)
        self.total = 0
        self.sum_ms = 0.0

    def observe(self, ms: float, count: int = 1) -> None:
        self.observe_shares(ms, (count,))

    def observe_shares(self, ms: float, shares: Sequence[int]) -> None:
        """``observe(ms, share)`` for each of ``shares`` in turn: one
        bucket lookup, and ``sum_ms`` takes the same float additions."""
        if ms < 0:
            raise ValueError("latency must be non-negative")
        if min(shares) < 1:
            raise ValueError("count must be positive")
        total = sum(shares)
        self.counts[bisect.bisect_left(self.BOUNDS, ms)] += total
        self.total += total
        for share in shares:
            self.sum_ms += ms * share

    def merge(self, other: "LatencyHistogram") -> None:
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.total += other.total
        self.sum_ms += other.sum_ms

    def quantile(self, q: float) -> float:
        """Upper bound (ms) of the bucket holding the q-quantile."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.total == 0:
            return 0.0
        target = q * self.total
        seen = 0
        for bound, count in zip(self.BOUNDS, self.counts):
            seen += count
            if seen >= target and count:
                return bound
        return self.BOUNDS[-2]  # only reachable via rounding at q=1.0

    @property
    def mean_ms(self) -> float:
        return self.sum_ms / self.total if self.total else 0.0

    def as_dict(self) -> dict:
        return {
            "total": self.total,
            "mean_ms": round(self.mean_ms, 3),
            "p50_ms": round(self.quantile(0.50), 3),
            "p99_ms": round(self.quantile(0.99), 3),
            "p999_ms": round(self.quantile(0.999), 3),
        }


def _fmt_ms(ms: float) -> str:
    if math.isinf(ms):
        return "inf"
    if ms >= 1000.0:
        return f"{ms / 1000.0:.2f} s"
    return f"{ms:.1f} ms"


@dataclass
class MechanismServingReport:
    """Everything one fleet run measured for one mechanism."""

    mechanism: str
    title: str
    endpoint: str
    sessions: int
    ticks: int
    tick_seconds: int
    service: dict
    cache_stats: dict[str, CacheStats]
    fetch: FetchStats
    latency: LatencyHistogram
    origin_signings: int
    origin_bytes: int
    notes: dict = field(default_factory=dict)

    @property
    def sim_seconds(self) -> float:
        return float(self.ticks * self.tick_seconds)

    @property
    def requests(self) -> int:
        return self.service.get("requests", 0)

    @property
    def throughput_rps(self) -> float:
        return self.requests / self.sim_seconds if self.sim_seconds else 0.0

    @property
    def bytes_per_client(self) -> float:
        return (
            self.fetch.bytes_downloaded / self.sessions if self.sessions else 0.0
        )

    @property
    def availability(self) -> float:
        return (
            self.fetch.successes / self.fetch.fetches if self.fetch.fetches else 1.0
        )

    def render_block(self) -> str:
        """The golden-digest unit for this mechanism."""
        lines = [f"--- {self.mechanism}: {self.title} ---"]
        lines.append(
            f"endpoint {self.endpoint} | sessions {self.sessions:,} | "
            f"ticks {self.ticks} x {self.tick_seconds}s"
        )
        lines.append(
            f"requests {self.requests:,} "
            f"({self.throughput_rps:,.1f} rps sustained)"
        )
        if self.fetch.fetches:
            lines.append(
                f"delivered {self.fetch.successes:,} / {self.fetch.fetches:,} "
                f"({self.availability:.2%}); "
                f"timeouts {self.fetch.timeouts:,}, "
                f"dns {self.fetch.dns_failures:,}, "
                f"http {self.fetch.http_errors:,}, "
                f"parse {self.fetch.parse_errors:,}"
            )
            lines.append(
                f"latency p50 {_fmt_ms(self.latency.quantile(0.50))}, "
                f"p99 {_fmt_ms(self.latency.quantile(0.99))}, "
                f"p999 {_fmt_ms(self.latency.quantile(0.999))}"
            )
            lines.append(
                f"bytes {format_bytes(self.fetch.bytes_downloaded)} total, "
                f"{self.bytes_per_client:,.1f} B/client"
            )
        else:
            lines.append("no online requests (no serving endpoint traffic)")
        lines.append(
            f"origin signings {self.origin_signings:,} "
            f"({format_bytes(self.origin_bytes)} signed)"
        )
        for name, stats in sorted(self.cache_stats.items()):
            if stats.lookups == 0:
                continue
            lines.append(
                f"cache[{name}] hits {stats.hits:,} / {stats.lookups:,} "
                f"({stats.hit_rate:.2%}); evictions {stats.evictions:,}, "
                f"expired {stats.expirations:,}"
            )
        for key in sorted(self.notes):
            lines.append(f"{key}: {self.notes[key]}")
        return "\n".join(lines)


def render_serving_report(reports: list[MechanismServingReport]) -> str:
    """The full serve-bench report: summary table + per-mechanism blocks."""
    rows = []
    for report in reports:
        rows.append(
            [
                report.mechanism,
                report.endpoint,
                f"{report.requests:,}",
                f"{report.throughput_rps:,.1f}",
                f"{_fmt_ms(report.latency.quantile(0.99))}",
                f"{report.bytes_per_client:,.1f}",
                f"{report.origin_signings:,}",
            ]
        )
    table = format_table(
        [
            "mechanism",
            "endpoint",
            "requests",
            "rps",
            "p99",
            "B/client",
            "signings",
        ],
        rows,
    )
    blocks = "\n\n".join(report.render_block() for report in reports)
    return f"{table}\n\n{blocks}"
