"""Policy engine tests against hand-built scenarios."""

from __future__ import annotations

import datetime

import pytest

from repro.browsers.certgen import TestPki
from repro.browsers.policy import (
    BrowserModel,
    ChainContext,
    Position,
    UnavailableAction,
)
from repro.revocation.ocsp import CertStatus

NOW = datetime.datetime(2015, 3, 31, 12, 0, tzinfo=datetime.timezone.utc)


class CheckEverything(BrowserModel):
    """A maximally strict reference browser."""

    name = "Strict"

    def requests_staple(self):
        return True

    def rejects_unknown_ocsp(self):
        return True

    def tries_crl_on_ocsp_failure(self, is_ev):
        return True

    def protocols_for(self, position, has_crl, has_ocsp, is_ev):
        if has_ocsp:
            return ["ocsp"]
        if has_crl:
            return ["crl"]
        return []

    def on_unavailable(
        self, position, protocol, has_crl, has_ocsp, is_ev, has_ints
    ):
        return UnavailableAction.REJECT


class CheckNothing(BrowserModel):
    name = "Lax"


def make_ctx(pki: TestPki, status_request=True) -> ChainContext:
    chain, staple = pki.handshake(status_request=status_request)
    return ChainContext(chain=chain, staple=staple, checker=pki.checker(), at=NOW)


class TestPositions:
    def test_position_of(self):
        assert Position.of(0) is Position.LEAF
        assert Position.of(1) is Position.INT1
        assert Position.of(2) is Position.INT2PLUS
        assert Position.of(5) is Position.INT2PLUS


class TestEngine:
    def test_valid_chain_accepted(self):
        pki = TestPki("pe-ok", 2, {"crl", "ocsp"}, ev=False)
        result = CheckEverything().validate(make_ctx(pki))
        assert result.accepted
        assert result.performed_any_check

    def test_revoked_leaf_rejected(self):
        pki = TestPki("pe-rev0", 1, {"ocsp"}, ev=False)
        pki.revoke(0)
        result = CheckEverything().validate(make_ctx(pki))
        assert not result.accepted
        assert "revoked" in result.rejection_reason

    def test_revoked_deep_intermediate_rejected(self):
        pki = TestPki("pe-rev2", 3, {"crl"}, ev=False)
        pki.revoke(2)
        assert not CheckEverything().validate(make_ctx(pki)).accepted

    def test_unavailable_hard_fail(self):
        pki = TestPki("pe-unav", 1, {"crl"}, ev=False)
        pki.make_unavailable(0, "crl", "no_response")
        result = CheckEverything().validate(make_ctx(pki))
        assert not result.accepted
        assert "unavailable" in result.rejection_reason

    def test_unknown_rejected_when_policy_says_so(self):
        pki = TestPki("pe-unk", 1, {"ocsp"}, ev=False)
        pki.make_unavailable(0, "ocsp", "unknown")
        assert not CheckEverything().validate(make_ctx(pki)).accepted

    def test_crl_fallback_catches_revocation(self):
        pki = TestPki("pe-fb", 1, {"crl", "ocsp"}, ev=False)
        pki.revoke(0)
        pki.make_unavailable(0, "ocsp", "no_response")
        result = CheckEverything().validate(make_ctx(pki))
        assert not result.accepted
        protocols = [record.protocol for record in result.checks]
        assert "crl" in protocols  # the fallback actually ran

    def test_lax_browser_accepts_everything(self):
        pki = TestPki("pe-lax", 1, {"crl", "ocsp"}, ev=False)
        pki.revoke(0)
        result = CheckNothing().validate(make_ctx(pki))
        assert result.accepted
        assert not result.performed_any_check
        assert not result.staple_requested


class TestStapleHandling:
    def test_good_staple_satisfies_leaf(self):
        pki = TestPki("pe-st-good", 1, {"ocsp"}, ev=False)
        pki.set_staple(CertStatus.GOOD)
        result = CheckEverything().validate(make_ctx(pki))
        assert result.accepted
        assert result.staple_used
        # The leaf must not also be checked over the network.
        leaf_network_checks = [
            r for r in result.checks
            if r.position is Position.LEAF and r.protocol != "staple"
        ]
        assert not leaf_network_checks

    def test_revoked_staple_rejected_when_respected(self):
        pki = TestPki("pe-st-rev", 1, {"ocsp"}, ev=False)
        pki.revoke(0)
        pki.set_staple(CertStatus.REVOKED, firewall_responder=True)
        result = CheckEverything().validate(make_ctx(pki))
        assert not result.accepted
        assert result.staple_used

    def test_revoked_staple_discarded_when_not_respected(self):
        class Discarder(CheckEverything):
            def respects_revoked_staple(self):
                return False

            def on_unavailable(self, *args):
                return UnavailableAction.ACCEPT

        pki = TestPki("pe-st-disc", 1, {"ocsp"}, ev=False)
        pki.revoke(0)
        pki.set_staple(CertStatus.REVOKED, firewall_responder=True)
        result = Discarder().validate(make_ctx(pki))
        # Responder is firewalled, staple was discarded -> soft-fail accept.
        assert result.accepted

    def test_staple_ignored_when_not_requested(self):
        class NoStaple(CheckEverything):
            def requests_staple(self):
                return False

            def on_unavailable(self, *args):
                return UnavailableAction.ACCEPT

        pki = TestPki("pe-st-noreq", 1, {"ocsp"}, ev=False)
        pki.revoke(0)
        pki.set_staple(CertStatus.REVOKED, firewall_responder=True)
        result = NoStaple().validate(make_ctx(pki, status_request=False))
        assert result.accepted  # never saw the staple, responder firewalled
        assert not result.staple_requested

    def test_warn_action_sets_flag(self):
        class Warner(CheckEverything):
            def on_unavailable(self, *args):
                return UnavailableAction.WARN

        pki = TestPki("pe-warn", 1, {"crl"}, ev=False)
        pki.make_unavailable(0, "crl", "http404")
        result = Warner().validate(make_ctx(pki))
        assert result.accepted
        assert result.warned
