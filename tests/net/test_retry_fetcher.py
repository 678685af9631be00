"""Retrying fetcher: outcome classification, retry counts, backoff and
failure accounting, circuit breaker, and negative caching."""

from __future__ import annotations

import datetime

import pytest

from repro.ca.authority import CertificateAuthority
from repro.net.cache import ClientCache
from repro.net.endpoints import CrlEndpoint, OcspEndpoint, StaticEndpoint
from repro.net.faults import FaultKind, FaultPlan, FaultSpec
from repro.net.fetcher import (
    CircuitBreaker,
    FetchOutcome,
    NetworkFetcher,
    RetryPolicy,
)
from repro.net.transport import FailureMode, Network
from repro.pki.keys import KeyPair

UTC = datetime.timezone.utc
NB = datetime.datetime(2014, 1, 1, tzinfo=UTC)
NA = datetime.datetime(2016, 1, 1, tzinfo=UTC)
NOW = datetime.datetime(2015, 3, 1, 12, 0, tzinfo=UTC)
ZERO = datetime.timedelta(0)


@pytest.fixture()
def ca():
    return CertificateAuthority.create_root(
        "Retry CA",
        "retry-ca",
        NB,
        NA,
        crl_base_url="http://crl.retry.example",
        ocsp_url="http://ocsp.retry.example/q",
    )


def wire(ca, **fetcher_kwargs):
    network = Network()
    url = ca.crl_publisher.urls[0]
    network.register(
        url, CrlEndpoint(lambda at: ca.crl_publisher.encode(url, at).to_der())
    )
    network.register(
        "http://ocsp.retry.example/q", OcspEndpoint(ca.ocsp_responder.respond)
    )
    fetcher = NetworkFetcher(
        network, clock_now=lambda: NOW, cache=ClientCache(), **fetcher_kwargs
    )
    return network, fetcher, url


MODE_OUTCOMES = [
    (FailureMode.NXDOMAIN, FetchOutcome.DNS_FAILURE),
    (FailureMode.HTTP_404, FetchOutcome.HTTP_ERROR),
    (FailureMode.NO_RESPONSE, FetchOutcome.TIMEOUT),
]


class TestOutcomeClassification:
    @pytest.mark.parametrize("mode,expected", MODE_OUTCOMES)
    def test_crl_failure_modes(self, ca, mode, expected):
        network, fetcher, url = wire(ca)
        network.set_failure(url, mode)
        result = fetcher.fetch_crl_result(url)
        assert result.value is None
        assert result.outcome is expected
        assert result.attempts == fetcher.retry_policy.max_attempts

    @pytest.mark.parametrize("mode,expected", MODE_OUTCOMES)
    def test_ocsp_failure_modes(self, ca, mode, expected):
        network, fetcher, _ = wire(ca)
        ocsp_url = "http://ocsp.retry.example/q"
        network.set_failure(ocsp_url, mode)
        result = fetcher.fetch_ocsp_result(ocsp_url, ca.issuer_key_hash, 1)
        assert result.value is None
        assert result.outcome is expected

    def test_garbage_body_is_parse_error(self):
        network = Network()
        network.register("http://g.example/x.crl", StaticEndpoint(b"not der"))
        fetcher = NetworkFetcher(network, clock_now=lambda: NOW)
        result = fetcher.fetch_crl_result("http://g.example/x.crl")
        assert result.outcome is FetchOutcome.PARSE_ERROR
        assert fetcher.stats.parse_errors == fetcher.retry_policy.max_attempts

    def test_non_http_url_classified_not_raised(self):
        network = Network()
        fetcher = NetworkFetcher(network, clock_now=lambda: NOW)
        result = fetcher.fetch_crl_result("ldap://dir.example/cn=crl")
        assert result.outcome is FetchOutcome.DNS_FAILURE
        assert fetcher.stats.failures == 1

    def test_success(self, ca):
        _, fetcher, url = wire(ca)
        result = fetcher.fetch_crl_result(url)
        assert result.ok and result.attempts == 1
        assert result.bytes_downloaded > 0
        assert result.latency > ZERO


class TestFailureAccounting:
    """Satellite bugfix: failed fetches must not be free."""

    def test_timeout_charges_budget_and_counts_fetch(self, ca):
        network, fetcher, url = wire(ca, retry_policy=RetryPolicy.no_retry())
        network.set_failure(url, FailureMode.NO_RESPONSE)
        assert fetcher.fetch_crl(url) is None
        assert fetcher.stats.fetches == 1
        assert fetcher.stats.latency_total >= network.timeout
        assert fetcher.stats.timeouts == 1

    def test_dns_failure_charges_rtt(self, ca):
        network, fetcher, url = wire(ca, retry_policy=RetryPolicy.no_retry())
        network.set_failure(url, FailureMode.NXDOMAIN)
        assert fetcher.fetch_crl(url) is None
        assert fetcher.stats.fetches == 1
        assert fetcher.stats.latency_total >= network.profile.rtt
        assert fetcher.stats.dns_failures == 1

    def test_retries_accumulate_backoff(self, ca):
        policy = RetryPolicy(max_attempts=3)
        network, fetcher, url = wire(ca, retry_policy=policy)
        network.set_failure(url, FailureMode.NO_RESPONSE)
        fetcher.fetch_crl(url)
        assert fetcher.stats.attempts == 3
        assert fetcher.stats.retries == 2
        assert fetcher.stats.backoff_total > ZERO
        # Total cost: 3 timeout budgets plus the backoff pauses.
        assert fetcher.stats.latency_total >= 3 * network.timeout

    def test_backoff_is_seeded_and_deterministic(self, ca):
        def total(seed):
            network, fetcher, url = wire(
                ca, retry_policy=RetryPolicy(max_attempts=4), seed=seed
            )
            network.set_failure(url, FailureMode.NO_RESPONSE)
            fetcher.fetch_crl(url)
            return fetcher.stats.backoff_total

        assert total(1) == total(1)
        assert total(1) != total(2)


class TestRetryRecovery:
    def test_flaky_endpoint_recovered_by_retry(self, ca):
        # A fault plan that fails the first attempt deterministically for
        # this seed; retries must land a success.
        plan = FaultPlan(seed=11).add(
            "*", FaultSpec(FaultKind.FLAKY, probability=0.5)
        )
        network, fetcher, url = wire(
            ca, retry_policy=RetryPolicy(max_attempts=6)
        )
        network.install_faults(plan)
        result = fetcher.fetch_crl_result(url)
        assert result.ok
        assert fetcher.stats.successes == 1

    def test_no_retry_policy_makes_single_attempt(self, ca):
        network, fetcher, url = wire(ca, retry_policy=RetryPolicy.no_retry())
        network.set_failure(url, FailureMode.HTTP_404)
        result = fetcher.fetch_crl_result(url)
        assert result.attempts == 1
        assert fetcher.stats.retries == 0


class TestCircuitBreaker:
    def test_opens_after_threshold(self, ca):
        breaker = CircuitBreaker(failure_threshold=2)
        network, fetcher, url = wire(
            ca, retry_policy=RetryPolicy.no_retry(), breaker=breaker
        )
        network.set_failure(url, FailureMode.NO_RESPONSE)
        fetcher.fetch_crl(url)
        fetcher.fetch_crl(url)
        assert breaker.is_open("crl.retry.example")
        before = fetcher.stats.attempts
        result = fetcher.fetch_crl_result(url)
        assert result.outcome is FetchOutcome.BREAKER_OPEN
        assert fetcher.stats.attempts == before  # rejected locally
        assert fetcher.stats.breaker_rejections == 1

    def test_half_open_probe_closes_on_success(self, ca):
        breaker = CircuitBreaker(
            failure_threshold=1, reset_after=datetime.timedelta(minutes=1)
        )
        clock = {"now": NOW}
        network = Network()
        url = ca.crl_publisher.urls[0]
        network.register(
            url, CrlEndpoint(lambda at: ca.crl_publisher.encode(url, at).to_der())
        )
        fetcher = NetworkFetcher(
            network,
            clock_now=lambda: clock["now"],
            retry_policy=RetryPolicy.no_retry(),
            breaker=breaker,
        )
        network.set_failure(url, FailureMode.NO_RESPONSE)
        fetcher.fetch_crl(url)
        assert breaker.is_open(url.split("//")[1].split("/")[0])
        # Still open inside the reset window.
        assert fetcher.fetch_crl_result(url).outcome is FetchOutcome.BREAKER_OPEN
        # After the window, the probe goes through and closes the circuit.
        network.clear_failure(url)
        clock["now"] = NOW + datetime.timedelta(minutes=2)
        result = fetcher.fetch_crl_result(url)
        assert result.ok
        assert not breaker.is_open("crl.retry.example")


class TestNegativeCache:
    def test_exhausted_failure_is_remembered(self, ca):
        policy = RetryPolicy(
            max_attempts=1, negative_cache_ttl=datetime.timedelta(minutes=5)
        )
        network, fetcher, url = wire(ca, retry_policy=policy)
        network.set_failure(url, FailureMode.HTTP_404)
        fetcher.fetch_crl(url)
        before = fetcher.stats.attempts
        result = fetcher.fetch_crl_result(url)
        assert result.outcome is FetchOutcome.NEGATIVE_CACHED
        assert fetcher.stats.attempts == before
        assert fetcher.stats.negative_cache_hits == 1

    def test_disabled_by_default(self, ca):
        network, fetcher, url = wire(ca, retry_policy=RetryPolicy.no_retry())
        network.set_failure(url, FailureMode.HTTP_404)
        fetcher.fetch_crl(url)
        before = fetcher.stats.attempts
        fetcher.fetch_crl(url)
        assert fetcher.stats.attempts == before + 1
