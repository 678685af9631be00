"""Endpoint and NetworkFetcher integration tests over a real CA."""

from __future__ import annotations

import datetime

import pytest

from repro.ca.authority import CertificateAuthority
from repro.net.cache import ClientCache
from repro.net.endpoints import CrlEndpoint, OcspEndpoint, StaticEndpoint
from repro.net.fetcher import NetworkFetcher
from repro.net.http import HttpRequest
from repro.net.transport import FailureMode, Network
from repro.pki.keys import KeyPair
from repro.pki.name import Name
from repro.revocation.crl import CertificateRevocationList
from repro.revocation.ocsp import CertStatus, OcspRequest

UTC = datetime.timezone.utc
NB = datetime.datetime(2014, 1, 1, tzinfo=UTC)
NA = datetime.datetime(2016, 1, 1, tzinfo=UTC)
NOW = datetime.datetime(2015, 3, 1, 12, 0, tzinfo=UTC)


@pytest.fixture()
def ca():
    return CertificateAuthority.create_root(
        "Endpoint CA",
        "endpoint-ca",
        NB,
        NA,
        crl_base_url="http://crl.endpoint.example",
        ocsp_url="http://ocsp.endpoint.example/q",
    )


@pytest.fixture()
def wired(ca):
    network = Network()
    url = ca.crl_publisher.urls[0]
    network.register(
        url, CrlEndpoint(lambda at: ca.crl_publisher.encode(url, at).to_der())
    )
    network.register("http://ocsp.endpoint.example/q", OcspEndpoint(ca.ocsp_responder.respond))
    fetcher = NetworkFetcher(network, clock_now=lambda: NOW, cache=ClientCache())
    return network, fetcher, url


class TestCrlEndpoint:
    def test_serves_current_crl(self, ca, wired):
        network, fetcher, url = wired
        leaf = ca.issue_leaf("a.example", KeyPair.generate("l").public_key, NB, NA)
        ca.revoke(leaf.serial_number, NOW - datetime.timedelta(days=1))
        crl = fetcher.fetch_crl(url)
        assert crl is not None
        assert crl.is_revoked(leaf.serial_number)
        assert not crl.is_expired(NOW)

    def test_post_rejected(self, ca, wired):
        network, _, url = wired
        response, _ = network.request(HttpRequest("POST", url, b""), NOW)
        assert not response.ok

    def test_fetch_failure_returns_none(self, wired):
        network, fetcher, url = wired
        network.set_failure(url, FailureMode.NO_RESPONSE)
        assert fetcher.fetch_crl(url) is None

    def test_404_returns_none(self, wired):
        network, fetcher, url = wired
        network.set_failure(url, FailureMode.HTTP_404)
        assert fetcher.fetch_crl(url) is None

    def test_garbage_body_returns_none(self):
        network = Network()
        network.register("http://crl.g.example/x.crl", StaticEndpoint(b"not der"))
        fetcher = NetworkFetcher(network, clock_now=lambda: NOW)
        assert fetcher.fetch_crl("http://crl.g.example/x.crl") is None

    def test_crl_caching(self, ca, wired):
        network, fetcher, url = wired
        fetcher.fetch_crl(url)
        first_fetches = fetcher.stats.fetches
        fetcher.fetch_crl(url)
        assert fetcher.stats.fetches == first_fetches  # served from cache


class TestOcspEndpoint:
    def test_good_and_revoked(self, ca, wired):
        _, fetcher, _ = wired
        good = ca.issue_leaf("g.example", KeyPair.generate("g").public_key, NB, NA)
        bad = ca.issue_leaf("b.example", KeyPair.generate("b").public_key, NB, NA)
        ca.revoke(bad.serial_number, NOW - datetime.timedelta(days=1))
        r_good = fetcher.fetch_ocsp(
            "http://ocsp.endpoint.example/q", ca.issuer_key_hash, good.serial_number
        )
        r_bad = fetcher.fetch_ocsp(
            "http://ocsp.endpoint.example/q", ca.issuer_key_hash, bad.serial_number
        )
        assert r_good.cert_status is CertStatus.GOOD
        assert r_bad.cert_status is CertStatus.REVOKED

    def test_unknown_serial(self, ca, wired):
        _, fetcher, _ = wired
        response = fetcher.fetch_ocsp(
            "http://ocsp.endpoint.example/q", ca.issuer_key_hash, 999_999
        )
        assert response.cert_status is CertStatus.UNKNOWN

    def test_post_only_responder_rejects_get(self, ca):
        # Stock OpenSSL responders accept only POST (§6.2 footnote 18).
        network = Network()
        network.register(
            "http://ocsp.endpoint.example/q",
            OcspEndpoint(ca.ocsp_responder.respond, accept_get=False),
        )
        fetcher = NetworkFetcher(network, clock_now=lambda: NOW)
        assert (
            fetcher.fetch_ocsp(
                "http://ocsp.endpoint.example/q", ca.issuer_key_hash, 1, use_get=True
            )
            is None
        )
        leaf = ca.issue_leaf("p.example", KeyPair.generate("p").public_key, NB, NA)
        response = fetcher.fetch_ocsp(
            "http://ocsp.endpoint.example/q",
            ca.issuer_key_hash,
            leaf.serial_number,
            use_get=False,
        )
        assert response is not None and response.cert_status is CertStatus.GOOD

    def test_malformed_request_yields_error_response(self, ca, wired):
        network, _, _ = wired
        response, _ = network.request(
            HttpRequest("POST", "http://ocsp.endpoint.example/q", b"\xff\xff"), NOW
        )
        assert response.ok  # HTTP-level OK carrying an OCSP error
        from repro.revocation.ocsp import OcspResponse

        parsed = OcspResponse.from_der(response.body)
        assert not parsed.is_successful

    def test_fetcher_accounts_cost(self, ca, wired):
        _, fetcher, url = wired
        fetcher.fetch_crl(url)
        assert fetcher.stats.bytes_downloaded > 0
        assert fetcher.stats.latency_total > datetime.timedelta(0)


class TestSharedParseMemo:
    """``decoded=``: fetchers of the same servers share parsed responses,
    keyed by the exact bytes (plus the URL for CRLs), and nothing else."""

    def _fetcher(self, network, decoded=None):
        return NetworkFetcher(
            network, clock_now=lambda: NOW, cache=ClientCache(), decoded=decoded
        )

    def test_equal_bytes_parse_once(self, ca, wired):
        network, _, url = wired
        decoded: dict = {}
        leaf = ca.issue_leaf("m.example", KeyPair.generate("m").public_key, NB, NA)
        first, second = self._fetcher(network, decoded), self._fetcher(network, decoded)
        crl = first.fetch_crl(url)
        ca.crl_publisher.restart_numbering()  # serve the same bytes again
        assert second.fetch_crl(url) is crl
        ocsp_url = "http://ocsp.endpoint.example/q"
        ocsp = first.fetch_ocsp(ocsp_url, ca.issuer_key_hash, leaf.serial_number)
        assert second.fetch_ocsp(ocsp_url, ca.issuer_key_hash, leaf.serial_number) is ocsp
        # Both clients went to the wire: only the parse is shared.
        assert first.stats.fetches == second.stats.fetches == 2
        assert len(decoded) == 2

    def test_without_a_memo_every_fetch_parses(self, ca, wired):
        network, _, url = wired
        first, second = self._fetcher(network), self._fetcher(network)
        crl = first.fetch_crl(url)
        ca.crl_publisher.restart_numbering()
        again = second.fetch_crl(url)
        assert again == crl and again is not crl

    def test_new_bytes_parse_anew(self, ca, wired):
        network, _, url = wired
        decoded: dict = {}
        leaf = ca.issue_leaf("n.example", KeyPair.generate("n").public_key, NB, NA)
        before = self._fetcher(network, decoded).fetch_crl(url)
        ca.revoke(leaf.serial_number, NOW - datetime.timedelta(days=1))
        ca.crl_publisher.restart_numbering()
        after = self._fetcher(network, decoded).fetch_crl(url)
        assert after.crl_number == before.crl_number
        assert not before.is_revoked(leaf.serial_number)
        assert after.is_revoked(leaf.serial_number)

    def test_crl_key_includes_the_url(self):
        network = Network()
        body = CertificateRevocationList.build(
            issuer=Name.make("Same CA"),
            issuer_keys=KeyPair.generate("same-bytes"),
            entries=[],
            this_update=NOW,
            next_update=NOW + datetime.timedelta(days=1),
        ).to_der()
        urls = ["http://a.same.example/x.crl", "http://b.same.example/x.crl"]
        for url in urls:
            network.register(url, StaticEndpoint(body))
        decoded: dict = {}
        crls = [self._fetcher(network, decoded).fetch_crl(url) for url in urls]
        assert [crl.url for crl in crls] == urls

    def test_parse_failures_are_not_remembered(self):
        network = Network()
        url = "http://crl.g.example/x.crl"
        network.register(url, StaticEndpoint(b"not der"))
        decoded: dict = {}
        for _ in range(2):
            fetcher = self._fetcher(network, decoded)
            assert fetcher.fetch_crl(url) is None
            assert fetcher.stats.parse_errors == fetcher.retry_policy.max_attempts
        assert decoded == {}
