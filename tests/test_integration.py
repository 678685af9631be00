"""Cross-module integration stories.

Each test exercises a complete end-to-end path the paper's measurement
depends on, crossing at least three subsystem boundaries.
"""

from __future__ import annotations

import datetime

import pytest

from repro.browsers.certgen import TestPki
from repro.browsers.desktop import InternetExplorer, Safari
from repro.browsers.mobile import MobileSafari
from repro.browsers.policy import ChainContext
from repro.browsers.registry import all_browsers

NOW = datetime.datetime(2015, 3, 31, 12, 0, tzinfo=datetime.timezone.utc)


class TestRevocationLifecycle:
    """CA revokes -> CRL publishes -> network serves -> client rejects."""

    def test_full_crl_path(self):
        pki = TestPki("int-crl", 1, {"crl"}, ev=False)
        browser = InternetExplorer(version="11.0")
        # Before revocation: accepted.
        chain, staple = pki.handshake(status_request=browser.requests_staple())
        ctx = ChainContext(chain, staple, pki.checker(), NOW)
        assert browser.validate(ctx).accepted
        # CA processes a revocation request.
        pki.revoke(0)
        ctx = ChainContext(chain, staple, pki.checker(), NOW)
        result = browser.validate(ctx)
        assert not result.accepted

    def test_full_ocsp_path(self):
        pki = TestPki("int-ocsp", 2, {"ocsp"}, ev=False)
        pki.revoke(1)
        browser = Safari()
        chain, staple = pki.handshake(status_request=False)
        result = browser.validate(ChainContext(chain, staple, pki.checker(), NOW))
        assert not result.accepted

    def test_soft_fail_attack_window(self):
        """An attacker who blocks the revocation endpoints turns off
        checking for soft-failing browsers (§2.3) but not for IE11's
        leaf hard-fail."""
        def blocked(pki: TestPki) -> None:
            pki.revoke(0)
            pki.make_unavailable(0, "ocsp", "no_response")

        pki_a = TestPki("int-sf-a", 1, {"ocsp"}, ev=False)
        blocked(pki_a)
        chain, staple = pki_a.handshake(status_request=False)
        soft = Safari()
        assert soft.validate(ChainContext(chain, staple, pki_a.checker(), NOW)).accepted

        pki_b = TestPki("int-sf-b", 1, {"ocsp"}, ev=False)
        blocked(pki_b)
        browser = InternetExplorer(version="11.0")
        chain, staple = pki_b.handshake(status_request=True)
        hard = browser.validate(ChainContext(chain, staple, pki_b.checker(), NOW))
        assert not hard.accepted

    def test_blocking_attacker_beats_most_browsers(self):
        """§2.3: "any attacker who can block access to specific domains
        could leverage soft-failures to effectively turn off revocation
        checking."  With every CRL and OCSP endpoint of a revoked chain
        blocked, the soft-fail browser/OS combinations outnumber the
        hard-fail ones."""
        accepted = rejected = 0
        for index, browser in enumerate(all_browsers()):
            pki = TestPki(f"sf{index}", 1, {"crl", "ocsp"}, ev=False)
            pki.revoke(0)
            for position in (0, 1):
                for protocol in ("crl", "ocsp"):
                    pki.make_unavailable(position, protocol, "no_response")
            chain, staple = pki.handshake(status_request=browser.requests_staple())
            result = browser.validate(ChainContext(chain, staple, pki.checker(), NOW))
            if result.accepted:
                accepted += 1
            else:
                rejected += 1
        assert accepted > rejected
        assert accepted + rejected == 30

    def test_mobile_user_accepts_revoked_cert(self):
        """The paper's bleakest path: a revoked certificate sails through
        a mobile browser untouched."""
        pki = TestPki("int-mobile", 1, {"crl", "ocsp"}, ev=False)
        pki.revoke(0)
        browser = MobileSafari("8")
        chain, staple = pki.handshake(status_request=False)
        result = browser.validate(ChainContext(chain, staple, pki.checker(), NOW))
        assert result.accepted
        assert not result.performed_any_check


class TestScanToCrlSet:
    """Ecosystem -> crawl -> CRLSet -> client protection check."""

    def test_crlset_would_protect_some_users(self, ecosystem, crlset_history):
        """Chrome+CRLSet blocks exactly the covered revocations."""
        snapshot = crlset_history.final_snapshot
        parent_by_int = {
            rec.intermediate_id: rec.spki_hash for rec in ecosystem.intermediates
        }
        protected = 0
        unprotected = 0
        end = ecosystem.calibration.measurement_end
        for leaf in ecosystem.leaf_records():
            if not leaf.is_revoked_by(end) or not leaf.is_fresh(end):
                continue
            parent = parent_by_int[leaf.intermediate_id]
            if snapshot.is_revoked(parent, leaf.serial_number):
                protected += 1
            else:
                unprotected += 1
        # The paper's conclusion: the overwhelming majority of revoked
        # certificates are invisible to CRLSet users.
        assert unprotected > 10 * max(protected, 1)

    def test_bloom_filter_alternative_catches_everything(
        self, ecosystem, crlset_history
    ):
        """§7.4: a 256 KB Bloom filter over all *observed* revocations has
        no false negatives, unlike the CRLSet."""
        from repro.crlset.bloom import BloomFilter
        from repro.crlset.format import serial_to_bytes

        end = ecosystem.calibration.measurement_end
        revoked = [
            leaf
            for leaf in ecosystem.leaf_records()
            if leaf.is_revoked_by(end) and leaf.is_fresh(end)
        ]
        bloom = BloomFilter.for_items(len(revoked), 256 * 1024 * 8)
        parent_by_int = {
            rec.intermediate_id: rec.spki_hash for rec in ecosystem.intermediates
        }
        for leaf in revoked:
            key = parent_by_int[leaf.intermediate_id] + serial_to_bytes(
                leaf.serial_number
            )
            bloom.add(key)
        misses = sum(
            1
            for leaf in revoked
            if (
                parent_by_int[leaf.intermediate_id]
                + serial_to_bytes(leaf.serial_number)
            )
            not in bloom
        )
        assert misses == 0
        assert bloom.size_bytes == 256 * 1024

    def test_crl_cost_for_median_certificate(self, study):
        """§5.2: fetching the median certificate's CRL costs hundreds of
        times more bytes than an OCSP exchange."""
        from repro.core.stats import weighted_cdf

        sizes = study.crl_sizes()
        crls = {crl.url: crl for crl in study.ecosystem.crls}
        weighted = weighted_cdf(
            (sizes[url], crls[url].assigned_cert_count) for url in sizes
        )
        ocsp_response_size = 400  # measured in tests/revocation/test_ocsp.py
        assert weighted.median > 20 * ocsp_response_size
