"""A :class:`~repro.revocation.checker.RevocationFetcher` over the
simulated network, with client-side caching, retries, a per-host circuit
breaker, and cost accounting.

Every attempt -- including failed ones -- is charged to the fetcher's
counters: a timeout costs the network's timeout budget, a DNS failure
costs one RTT, and backoff pauses between retries cost their wait time.
This is what lets §5.2-style cost numbers include broken endpoints
instead of silently undercounting them (docs/ROBUSTNESS.md).
"""

from __future__ import annotations

import datetime
import enum
import random
from dataclasses import dataclass, field

from repro.net.cache import ClientCache
from repro.net.dns import DnsError
from repro.net.http import HttpRequest, split_url
from repro.net.transport import Network, TimeoutError_, TransferStats
from repro.obs import NULL_OBS, Observability
from repro.revocation.crl import CertificateRevocationList
from repro.revocation.ocsp import OcspRequest, OcspResponse

__all__ = [
    "CircuitBreaker",
    "FetchOutcome",
    "FetchResult",
    "FetchStats",
    "NetworkFetcher",
    "RetryPolicy",
]


class FetchOutcome(enum.Enum):
    """Why a fetch ended the way it did."""

    OK = "ok"
    TIMEOUT = "timeout"
    DNS_FAILURE = "dns_failure"
    HTTP_ERROR = "http_error"
    PARSE_ERROR = "parse_error"
    BREAKER_OPEN = "breaker_open"
    NEGATIVE_CACHED = "negative_cached"

    @property
    def is_transport_failure(self) -> bool:
        return self in (FetchOutcome.TIMEOUT, FetchOutcome.DNS_FAILURE)


@dataclass(frozen=True)
class FetchResult:
    """One fetch's value plus its failure classification and cost."""

    value: object | None
    outcome: FetchOutcome
    attempts: int = 1
    latency: datetime.timedelta = datetime.timedelta(0)
    bytes_downloaded: int = 0
    from_cache: bool = False

    @property
    def ok(self) -> bool:
        return self.outcome is FetchOutcome.OK and self.value is not None


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff behaviour for one logical fetch.

    ``max_attempts`` caps tries (1 = no retry); backoff before attempt
    ``n+1`` is ``backoff_base * backoff_factor**(n-1)``, stretched by up
    to ``jitter`` (a fraction, drawn from the fetcher's seeded RNG).
    ``negative_cache_ttl`` remembers exhausted failures so immediate
    re-fetches of a dead URL are answered locally.
    """

    max_attempts: int = 3
    backoff_base: datetime.timedelta = datetime.timedelta(milliseconds=200)
    backoff_factor: float = 2.0
    jitter: float = 0.1
    retry_http_errors: bool = True
    retry_parse_errors: bool = True
    negative_cache_ttl: datetime.timedelta | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    @classmethod
    def no_retry(cls) -> "RetryPolicy":
        return cls(max_attempts=1)

    @classmethod
    def aggressive(cls) -> "RetryPolicy":
        """Retry hard and remember dead endpoints (availability study)."""
        return cls(
            max_attempts=4,
            negative_cache_ttl=datetime.timedelta(minutes=5),
        )

    def should_retry(self, outcome: FetchOutcome, attempt: int) -> bool:
        if attempt >= self.max_attempts:
            return False
        if outcome.is_transport_failure:
            return True
        if outcome is FetchOutcome.HTTP_ERROR:
            return self.retry_http_errors
        if outcome is FetchOutcome.PARSE_ERROR:
            return self.retry_parse_errors
        return False

    def backoff(self, attempt: int, rng: random.Random) -> datetime.timedelta:
        """Pause before attempt ``attempt + 1`` (``attempt`` >= 1)."""
        pause = self.backoff_base * (self.backoff_factor ** (attempt - 1))
        return pause * (1.0 + self.jitter * rng.random())


class CircuitBreaker:
    """Per-host consecutive-failure breaker.

    After ``failure_threshold`` consecutive exhausted fetches to a host
    the breaker opens and rejects requests locally (no network cost
    beyond bookkeeping) until ``reset_after`` of simulated time has
    passed; the next request is then a half-open probe whose result
    closes or re-opens the circuit.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_after: datetime.timedelta = datetime.timedelta(minutes=1),
        obs: Observability | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.reset_after = reset_after
        self.obs = obs if obs is not None else NULL_OBS
        self._consecutive: dict[str, int] = {}
        self._opened_at: dict[str, datetime.datetime] = {}

    def allow(self, host: str, at: datetime.datetime) -> bool:
        opened = self._opened_at.get(host)
        if opened is None:
            return True
        if at >= opened + self.reset_after:
            if self.obs.enabled:
                self.obs.tracer.event("breaker.half_open", host=host)
                self.obs.metrics.counter("breaker.half_open", host=host).inc()
            return True  # half-open probe
        return False

    def is_open(self, host: str) -> bool:
        return host in self._opened_at

    def record_success(self, host: str) -> None:
        was_open = host in self._opened_at
        self._consecutive.pop(host, None)
        self._opened_at.pop(host, None)
        if was_open and self.obs.enabled:
            self.obs.tracer.event("breaker.close", host=host)
            self.obs.metrics.counter("breaker.closed", host=host).inc()

    def record_failure(self, host: str, at: datetime.datetime) -> None:
        count = self._consecutive.get(host, 0) + 1
        self._consecutive[host] = count
        if count >= self.failure_threshold:
            newly_open = host not in self._opened_at
            self._opened_at[host] = at
            if self.obs.enabled:
                name = "breaker.open" if newly_open else "breaker.reopen"
                self.obs.tracer.event(name, host=host, failures=count)
                self.obs.metrics.counter(name + "ed", host=host).inc()


@dataclass
class FetchStats:
    """Running totals over every attempt the fetcher made."""

    fetches: int = 0  # logical fetches that hit the wire (or tried to)
    attempts: int = 0  # individual request attempts
    retries: int = 0
    successes: int = 0
    failures: int = 0  # logical fetches that exhausted their attempts
    timeouts: int = 0
    dns_failures: int = 0
    http_errors: int = 0
    parse_errors: int = 0
    breaker_rejections: int = 0
    negative_cache_hits: int = 0
    bytes_downloaded: int = 0
    latency_total: datetime.timedelta = field(default_factory=lambda: datetime.timedelta(0))
    backoff_total: datetime.timedelta = field(default_factory=lambda: datetime.timedelta(0))

    def as_dict(self) -> dict:
        return {
            "fetches": self.fetches,
            "attempts": self.attempts,
            "retries": self.retries,
            "successes": self.successes,
            "failures": self.failures,
            "timeouts": self.timeouts,
            "dns_failures": self.dns_failures,
            "http_errors": self.http_errors,
            "parse_errors": self.parse_errors,
            "breaker_rejections": self.breaker_rejections,
            "negative_cache_hits": self.negative_cache_hits,
            "bytes_downloaded": self.bytes_downloaded,
            "latency_total_ms": self.latency_total / datetime.timedelta(milliseconds=1),
            "backoff_total_ms": self.backoff_total / datetime.timedelta(milliseconds=1),
        }

    def publish(self, metrics, **labels) -> None:
        """Wire the running totals into a metrics registry as gauges.

        Use distinct ``labels`` per fetcher (experiment leg, component):
        gauges are last-write instruments, so publishing two fetchers'
        totals under the same labels would overwrite, not add.
        """
        for name, value in self.as_dict().items():
            metrics.gauge(f"fetch_stats.{name}", **labels).set(value)

    def merge(self, other: FetchStats) -> None:
        """Accumulate another fetcher's totals into this one.

        Lets a caller that spins up many short-lived fetchers (one per
        simulated client) keep one aggregate to ``publish``.
        """
        self.fetches += other.fetches
        self.attempts += other.attempts
        self.retries += other.retries
        self.successes += other.successes
        self.failures += other.failures
        self.timeouts += other.timeouts
        self.dns_failures += other.dns_failures
        self.http_errors += other.http_errors
        self.parse_errors += other.parse_errors
        self.breaker_rejections += other.breaker_rejections
        self.negative_cache_hits += other.negative_cache_hits
        self.bytes_downloaded += other.bytes_downloaded
        self.latency_total += other.latency_total
        self.backoff_total += other.backoff_total


class _NegativeEntry:
    """ClientCache-compatible tombstone for an exhausted fetch."""

    def __init__(self, outcome: FetchOutcome, expires: datetime.datetime) -> None:
        self.outcome = outcome
        self.next_update = expires  # eviction key used by ClientCache

    def is_expired(self, at: datetime.datetime) -> bool:
        return at > self.next_update


_OUTCOME_COUNTERS = {
    FetchOutcome.TIMEOUT: "timeouts",
    FetchOutcome.DNS_FAILURE: "dns_failures",
    FetchOutcome.HTTP_ERROR: "http_errors",
    FetchOutcome.PARSE_ERROR: "parse_errors",
}


class NetworkFetcher:
    """Fetches CRLs and OCSP responses through a :class:`Network`.

    Keeps running totals of bytes and latency so experiments can report
    the client-side cost of revocation checking (§5.2); retry/backoff,
    negative caching, and the circuit breaker make the cost of *broken*
    endpoints explicit instead of free.
    """

    def __init__(
        self,
        network: Network,
        clock_now: "callable",
        cache: ClientCache | None = None,
        retry_policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        seed: int = 0,
        obs: Observability | None = None,
        *,
        decoded: dict | None = None,
    ) -> None:
        self._network = network
        self._now = clock_now
        self.obs = obs if obs is not None else NULL_OBS
        self.cache = cache if cache is not None else ClientCache()
        self.retry_policy = retry_policy or RetryPolicy()
        self.breaker = breaker or CircuitBreaker(obs=self.obs)
        self._rng = random.Random(f"fetcher/{seed}")
        self.stats = FetchStats()
        self._negative: ClientCache = ClientCache()
        #: parsed responses shared with other fetchers of the same
        #: servers (internal; see :meth:`_parser`).
        self._decoded = decoded

    # -- public API --------------------------------------------------------

    def fetch_crl(self, url: str) -> CertificateRevocationList | None:
        return self.fetch_crl_result(url).value

    def fetch_crl_result(self, url: str) -> FetchResult:
        return self._fetch(
            key=("crl", url),
            request=HttpRequest("GET", url),
            parse=self._parser(
                lambda body: CertificateRevocationList.from_der(body, url=url),
                "crl",
                url,
            ),
        )

    def fetch_ocsp(
        self,
        url: str,
        issuer_key_hash: bytes,
        serial_number: int,
        use_get: bool = True,
    ) -> OcspResponse | None:
        return self.fetch_ocsp_result(
            url, issuer_key_hash, serial_number, use_get=use_get
        ).value

    def fetch_ocsp_result(
        self,
        url: str,
        issuer_key_hash: bytes,
        serial_number: int,
        use_get: bool = True,
    ) -> FetchResult:
        ocsp_request = OcspRequest(
            issuer_key_hash=issuer_key_hash,
            serial_number=serial_number,
            use_get=use_get,
        )
        return self._fetch(
            key=("ocsp", url, issuer_key_hash, serial_number),
            request=HttpRequest(
                "GET" if use_get else "POST", url, body=ocsp_request.to_der()
            ),
            parse=self._parser(OcspResponse.from_der, "ocsp"),
            # Unsuccessful OCSP statuses (tryLater, unauthorized, ...)
            # parse fine but must not be cached as answers.
            cacheable=lambda parsed: parsed.is_successful,
        )

    # -- engine ------------------------------------------------------------

    def _parser(self, parse, *scope):
        """``parse``, answered from the shared ``decoded`` memo when one
        was given.

        The key is ``scope`` plus the exact response bytes (a CRL's
        parsed form also carries its URL), so equal bytes parse equal
        and the memo never needs invalidating.  Parsed CRLs and OCSP
        responses are immutable, so fetchers can share them; a parse
        that raises is not remembered.
        """
        decoded = self._decoded
        if decoded is None:
            return parse

        def memoised(body: bytes):
            key = (*scope, body)
            parsed = decoded.get(key)
            if parsed is None:
                parsed = decoded[key] = parse(body)
            return parsed

        return memoised

    def _fetch(
        self,
        key: tuple,
        request: HttpRequest,
        parse,
        cacheable=lambda parsed: True,
    ) -> FetchResult:
        at = self._now()
        obs = self.obs
        cached = self.cache.get(key, at)
        if cached is not None:
            if obs.enabled:
                obs.metrics.counter("fetch.client_cache_hits", kind=key[0]).inc()
            return FetchResult(cached, FetchOutcome.OK, attempts=0, from_cache=True)
        tombstone = self._negative.get(key, at)
        if tombstone is not None:
            self.stats.negative_cache_hits += 1
            if obs.enabled:
                obs.metrics.counter("fetch.negative_cache_hits", kind=key[0]).inc()
            return FetchResult(
                None, FetchOutcome.NEGATIVE_CACHED, attempts=0, from_cache=True
            )

        try:
            host, _ = split_url(request.url)
        except ValueError:
            # Non-HTTP pointer (e.g. an ldap:// distribution point): not
            # fetchable here, classified like an unresolvable name.
            self.stats.fetches += 1
            self.stats.failures += 1
            self.stats.dns_failures += 1
            result = FetchResult(None, FetchOutcome.DNS_FAILURE, attempts=0)
            if obs.enabled:
                self._observe(key[0], request.url, result)
            return result
        if not self.breaker.allow(host, at):
            self.stats.breaker_rejections += 1
            result = FetchResult(None, FetchOutcome.BREAKER_OPEN, attempts=0)
            if obs.enabled:
                self._observe(key[0], request.url, result)
            return result

        self.stats.fetches += 1
        policy = self.retry_policy
        latency = datetime.timedelta(0)
        nbytes = 0
        outcome = FetchOutcome.TIMEOUT
        parsed = None
        attempt = 0
        while True:
            attempt += 1
            self.stats.attempts += 1
            outcome, parsed, stats = self._attempt(request, at, parse)
            if stats is not None:
                latency += stats.latency
                nbytes += stats.bytes_down
            if outcome is FetchOutcome.OK:
                break
            counter = _OUTCOME_COUNTERS.get(outcome)
            if counter is not None:
                setattr(self.stats, counter, getattr(self.stats, counter) + 1)
            if not policy.should_retry(outcome, attempt):
                break
            pause = policy.backoff(attempt, self._rng)
            latency += pause
            self.stats.backoff_total += pause
            self.stats.retries += 1

        self.stats.latency_total += latency
        self.stats.bytes_downloaded += nbytes
        if outcome is FetchOutcome.OK:
            self.stats.successes += 1
            self.breaker.record_success(host)
            if cacheable(parsed):
                self.cache.put(key, parsed)
            result = FetchResult(
                parsed,
                outcome,
                attempts=attempt,
                latency=latency,
                bytes_downloaded=nbytes,
            )
            if obs.enabled:
                self._observe(key[0], request.url, result)
            return result
        self.stats.failures += 1
        self.breaker.record_failure(host, at)
        if policy.negative_cache_ttl is not None:
            self._negative.put(
                key, _NegativeEntry(outcome, at + policy.negative_cache_ttl)
            )
        result = FetchResult(
            None, outcome, attempts=attempt, latency=latency, bytes_downloaded=nbytes
        )
        if obs.enabled:
            self._observe(key[0], request.url, result)
        return result

    def _observe(self, kind: str, url: str, result: FetchResult) -> None:
        """Wire one fetch's cost into the span log and the metrics
        registry (the per-fetch increments that sum to FetchStats)."""
        latency_ms = result.latency / datetime.timedelta(milliseconds=1)
        self.obs.tracer.event(
            "fetch",
            kind=kind,
            url=url,
            outcome=result.outcome.value,
            attempts=result.attempts,
            latency_ms=latency_ms,
            bytes=result.bytes_downloaded,
        )
        metrics = self.obs.metrics
        metrics.counter("fetch.fetches", kind=kind).inc()
        metrics.counter("fetch.attempts", kind=kind).inc(result.attempts)
        metrics.counter(
            "fetch.outcomes", kind=kind, outcome=result.outcome.value
        ).inc()
        metrics.counter("fetch.bytes_downloaded", kind=kind).inc(
            result.bytes_downloaded
        )
        metrics.histogram("fetch.latency_ms", kind=kind).observe(latency_ms)

    def _attempt(
        self, request: HttpRequest, at: datetime.datetime, parse
    ) -> tuple[FetchOutcome, object | None, TransferStats | None]:
        try:
            response, stats = self._network.request(request, at)
        except DnsError as exc:
            return FetchOutcome.DNS_FAILURE, None, self._exc_stats(exc, request)
        except TimeoutError_ as exc:
            return FetchOutcome.TIMEOUT, None, self._exc_stats(exc, request)
        except ValueError:
            return FetchOutcome.DNS_FAILURE, None, None
        if not response.ok:
            return FetchOutcome.HTTP_ERROR, None, stats
        try:
            parsed = parse(response.body)
        except Exception:
            return FetchOutcome.PARSE_ERROR, None, stats
        return FetchOutcome.OK, parsed, stats

    def _exc_stats(self, exc: Exception, request: HttpRequest) -> TransferStats:
        # Networks attach the attempt's cost to the exception; fall back
        # to charging the static budget for stub networks that don't.
        stats = getattr(exc, "stats", None)
        if stats is not None:
            return stats
        if isinstance(exc, TimeoutError_):
            latency = getattr(self._network, "timeout", datetime.timedelta(seconds=10))
        else:
            profile = getattr(self._network, "profile", None)
            latency = profile.rtt if profile is not None else datetime.timedelta(0)
        return TransferStats(latency=latency, bytes_down=0, bytes_up=len(request.body))
