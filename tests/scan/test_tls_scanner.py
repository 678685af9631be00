"""Michigan-style TLS handshake scan tests (stapling measurements)."""

from __future__ import annotations

import pytest

from repro.scan.tls_scanner import TlsHandshakeScanner


@pytest.fixture(scope="module")
def scanner(ecosystem):
    return TlsHandshakeScanner(ecosystem)


class TestSummary:
    def test_bands(self, scanner):
        summary = scanner.summary()
        assert 0.01 <= summary.server_fraction <= 0.08  # paper 2.60%
        assert 0.02 <= summary.cert_any_fraction <= 0.09  # paper 5.19%
        assert 0.015 <= summary.cert_all_fraction <= 0.06  # paper 3.09%
        assert summary.cert_all_fraction <= summary.cert_any_fraction

    def test_ev_staples_less(self, scanner):
        summary = scanner.summary()
        assert summary.ev_any_fraction < summary.cert_any_fraction

    def test_server_counts_exceed_cert_counts(self, scanner):
        summary = scanner.summary()
        # One certificate is advertised by many servers (paper: 12.9 M
        # servers vs 2.3 M fresh certs).
        assert summary.servers_total > 3 * summary.certs_total

    def test_stapling_servers_bounded(self, ecosystem):
        for leaf in ecosystem.leaf_records():
            assert 0 <= leaf.stapling_servers <= leaf.server_count


class TestProbeExperiment:
    def test_monotone_nondecreasing(self, scanner):
        result = scanner.probe_experiment(server_sample=5_000)
        fractions = result.observed_fraction
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))

    def test_single_probe_underestimates(self, scanner):
        result = scanner.probe_experiment(server_sample=5_000)
        assert 0.10 <= result.single_probe_underestimate <= 0.25  # paper ~18%

    def test_converges_high(self, scanner):
        result = scanner.probe_experiment(server_sample=5_000)
        assert result.observed_fraction[-1] >= 0.97

    def test_probe_count_respected(self, scanner):
        result = scanner.probe_experiment(server_sample=500, probes=4)
        assert result.probes == 4
        assert len(result.observed_fraction) == 4
