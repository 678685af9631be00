"""End-to-end networked CRL fetch over ecosystem data.

The crawl index reads the generator's ground truth directly for speed;
this test verifies the equivalence the design relies on -- that a
client fetching an ecosystem CRL *over the simulated network* sees
exactly the entries and sizes the crawl reports.
"""

from __future__ import annotations

import datetime

import pytest

from repro.net.cache import ClientCache
from repro.net.endpoints import StaticEndpoint
from repro.net.fetcher import NetworkFetcher
from repro.net.transport import Network


@pytest.fixture(scope="module")
def small_crl(ecosystem):
    """A fully materialised (no hidden bulk) ecosystem CRL."""
    return next(
        crl
        for crl in ecosystem.crls
        if crl.hidden is None and len(crl.entries) > 3
    )


class TestNetworkedCrawl:
    def test_wire_fetch_matches_ground_truth(self, ecosystem, small_crl):
        day = ecosystem.calibration.measurement_end
        at = datetime.datetime(day.year, day.month, day.day, 13, tzinfo=datetime.timezone.utc)

        state = ecosystem.brands[small_crl.brand]
        issuer_ca = next(
            ca
            for ca, record in zip(state.intermediate_cas, state.intermediate_records)
            if record.intermediate_id == small_crl.intermediate_id
        )
        wire = small_crl.to_crl(day, issuer_ca.keys)

        network = Network()
        network.register(small_crl.url, StaticEndpoint(wire.to_der()))
        fetcher = NetworkFetcher(network, clock_now=lambda: at, cache=ClientCache())

        fetched = fetcher.fetch_crl(small_crl.url)
        assert fetched is not None
        # Same entries as the crawl's ground-truth view...
        expected = {
            entry.serial_number for entry in small_crl.visible_entries(day)
        }
        assert fetched.serial_numbers() == expected
        # ...the same byte size the size model reports...
        assert fetched.encoded_size == small_crl.size_bytes(day)
        # ...and a valid signature from the issuing intermediate.
        assert fetched.verify_signature(issuer_ca.keys.public_key)

    def test_revoked_leaf_detectable_over_the_wire(self, ecosystem, small_crl):
        day = ecosystem.calibration.measurement_end
        at = datetime.datetime(day.year, day.month, day.day, 13, tzinfo=datetime.timezone.utc)
        observed = next(
            (e for e in small_crl.visible_entries(day) if e.cert_id is not None),
            None,
        )
        if observed is None:
            pytest.skip("no scan-observed revocation on this CRL")
        state = ecosystem.brands[small_crl.brand]
        issuer_ca = next(
            ca
            for ca, record in zip(state.intermediate_cas, state.intermediate_records)
            if record.intermediate_id == small_crl.intermediate_id
        )
        wire = small_crl.to_crl(day, issuer_ca.keys)
        network = Network()
        network.register(small_crl.url, StaticEndpoint(wire.to_der()))
        fetcher = NetworkFetcher(network, clock_now=lambda: at)
        fetched = fetcher.fetch_crl(small_crl.url)
        assert fetched.is_revoked(observed.serial_number)
