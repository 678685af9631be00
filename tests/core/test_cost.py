"""Session cost model tests (§5.2 client-side trade-offs)."""

from __future__ import annotations

import pytest

from repro.core.cost import SessionCostModel
from repro.mechanisms import create, create_suite
from repro.mechanisms.base import OCSP_RESPONSE_BYTES
from repro.net.transport import LinkProfile


@pytest.fixture(scope="module")
def model(ecosystem):
    return SessionCostModel(ecosystem)


@pytest.fixture(scope="module")
def comparison(model):
    suite = create_suite(model, ("crl", "ocsp", "ocsp-stapling"))
    return model.compare_mechanisms(suite, site_count=150)


class TestSessionCost:
    def test_mode_ordering(self, comparison):
        """The paper's §5.2 ranking: CRL >> OCSP > stapling > none."""
        assert comparison["crl"].bytes_downloaded > 10 * comparison[
            "ocsp"
        ].bytes_downloaded
        assert (
            comparison["ocsp"].bytes_downloaded
            >= comparison["ocsp-stapling"].bytes_downloaded
        )
        assert comparison["none"].bytes_downloaded == 0

    def test_none_mode_is_free(self, comparison):
        none = comparison["none"]
        assert none.checks == 0
        assert none.blocking_latency_s == pytest.approx(0.0)

    def test_ocsp_bytes_accounting(self, comparison):
        ocsp = comparison["ocsp"]
        assert ocsp.bytes_downloaded == ocsp.checks * OCSP_RESPONSE_BYTES

    def test_caching_helps_repeat_visits(self, model):
        sites = model.sample_sites(40)
        doubled = sites + sites
        cost = model.session_for(doubled, create("ocsp", model))
        assert cost.cache_hits >= len(sites)

    def test_per_site_metrics(self, comparison):
        crl = comparison["crl"]
        assert crl.bytes_per_site > 0
        assert crl.latency_per_site_ms > 0

    def test_unknown_mode_rejected(self, model):
        with pytest.raises(KeyError):
            create_suite(model, ("pigeon",))

    def test_registry_sweep(self, study):
        """A 100-site session priced under every registered mechanism:
        the pushed mechanisms cost no browse-time bytes, and a CRL
        download costs more than an OCSP query."""
        suite = study.mechanism_suite
        comparison = SessionCostModel(study.ecosystem).compare_mechanisms(
            suite, site_count=100
        )
        assert set(comparison) == {m.name for m in suite} | {"none"}
        pushed = [
            comparison[m.name].bytes_downloaded for m in suite if not m.uses_network
        ]
        assert pushed and all(cost == 0 for cost in pushed)
        assert comparison["crl"].bytes_downloaded > comparison["ocsp"].bytes_downloaded

    def test_mobile_profile_latency_higher(self, ecosystem):
        broadband = SessionCostModel(ecosystem, LinkProfile(), seed=9)
        mobile = SessionCostModel(ecosystem, LinkProfile.mobile(), seed=9)
        sites_b = broadband.sample_sites(60)
        sites_m = mobile.sample_sites(60)
        cost_b = broadband.session_for(sites_b, create("ocsp", broadband))
        cost_m = mobile.session_for(sites_m, create("ocsp", mobile))
        assert cost_m.latency_per_site_ms > 2 * cost_b.latency_per_site_ms
