"""RFC 6961 multi-stapling tests."""

from __future__ import annotations

import datetime

import pytest

from repro.browsers.certgen import TestPki
from repro.mechanisms.stapling import MultiStapleServer, chain_check_cost
from repro.revocation.checker import CheckOutcome
from repro.revocation.ocsp import OcspRequest

NOW = datetime.datetime(2015, 3, 31, 12, 0, tzinfo=datetime.timezone.utc)


@pytest.fixture()
def pki(request):
    """A two-intermediate chain; tests that parametrize ``pki``
    indirectly choose the intermediate count."""
    intermediates = getattr(request, "param", 2)
    return TestPki(f"ms{intermediates}", intermediates, {"ocsp"}, ev=False)


def make_server(pki: TestPki) -> MultiStapleServer:
    fetchers = []
    for index in range(len(pki.chain) - 1):
        issuer = pki.issuer_ca_of(index)
        serial = pki.chain[index].serial_number

        def fetch(at, issuer=issuer, serial=serial):
            return issuer.ocsp_responder.respond(
                OcspRequest(issuer.issuer_key_hash, serial), at
            )

        fetchers.append(fetch)
    return MultiStapleServer(chain=pki.chain, staple_fetchers=fetchers)


class TestMultiStapleServer:
    def test_fetcher_count_validated(self, pki):
        with pytest.raises(ValueError):
            MultiStapleServer(chain=pki.chain, staple_fetchers=[lambda at: None])

    def test_warm_server_staples_whole_chain(self, pki):
        server = make_server(pki)
        server.warm_all(NOW)
        result = server.handshake(NOW, status_request_v2=True)
        assert result.complete
        assert len(result.staples) == len(pki.chain) - 1
        assert result.leaf_staple is not None

    def test_no_request_no_staples(self, pki):
        server = make_server(pki)
        server.warm_all(NOW)
        result = server.handshake(NOW, status_request_v2=False)
        assert result.staples == ()

    def test_staples_are_issuer_signed(self, pki):
        server = make_server(pki)
        server.warm_all(NOW)
        result = server.handshake(NOW, status_request_v2=True)
        for index, staple in enumerate(result.staples):
            issuer = pki.issuer_ca_of(index)
            assert staple.verify_signature(issuer.keys.public_key)

    def test_plain_server_comparison(self, pki):
        multi = make_server(pki)
        plain = multi.plain_tls_server()
        assert plain.stapling_enabled
        assert plain.chain == tuple(pki.chain)


class TestChainCheckCost:
    def test_multi_staple_removes_all_fetches(self, pki):
        server = make_server(pki)
        server.warm_all(NOW)
        result = server.handshake(NOW, status_request_v2=True)
        cost = chain_check_cost(result.chain, result.staples, pki.checker(), NOW)
        assert cost.fetches == 0
        assert cost.definitive

    def test_leaf_only_staple_still_needs_intermediate_fetches(self, pki):
        """The paper's §2.2 gap: classic stapling leaves intermediates
        to live OCSP."""
        server = make_server(pki)
        server.warm_all(NOW)
        full = server.handshake(NOW, status_request_v2=True)
        leaf_only = (full.staples[0],) + (None,) * (len(full.staples) - 1)
        cost = chain_check_cost(full.chain, leaf_only, pki.checker(), NOW)
        assert cost.fetches == len(pki.chain) - 2  # every intermediate

    def test_no_staples_max_fetches(self, pki):
        cost = chain_check_cost(
            pki.chain, (None,) * (len(pki.chain) - 1), pki.checker(), NOW
        )
        assert cost.fetches == len(pki.chain) - 1

    @pytest.mark.parametrize("pki", [1, 2, 3], indirect=True)
    def test_classic_staple_saves_one_fetch_multi_saves_all(self, pki):
        """RFC 6961 against RFC 6066, at every chain length: a classic
        (leaf-only) staple removes exactly one blocking fetch, and
        whole-chain staples remove them all."""
        server = make_server(pki)
        server.warm_all(NOW)
        full = server.handshake(NOW, status_request_v2=True)
        checker = pki.checker()
        unstapled = (None,) * len(full.staples)
        leaf_only = (full.staples[0],) + unstapled[1:]
        none = chain_check_cost(full.chain, unstapled, checker, NOW).fetches
        classic = chain_check_cost(full.chain, leaf_only, checker, NOW).fetches
        multi = chain_check_cost(full.chain, full.staples, checker, NOW).fetches
        assert classic == none - 1
        assert multi == 0

    def test_revoked_intermediate_caught_via_staple(self, pki):
        pki.revoke(1)
        server = make_server(pki)
        server.warm_all(NOW)
        # Stock policy refuses to cache a revoked staple; the client then
        # fetches live and still learns the truth.
        result = server.handshake(NOW, status_request_v2=True)
        cost = chain_check_cost(result.chain, result.staples, pki.checker(), NOW)
        assert CheckOutcome.REVOKED in cost.outcomes
