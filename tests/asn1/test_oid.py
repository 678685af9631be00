"""OID registry tests."""

from __future__ import annotations

import pytest

from repro.asn1 import der
from repro.asn1.oid import OID, OIDRegistry, REGISTRY


class TestOidConstants:
    def test_ev_policy_set_contains_verisign(self):
        assert OID.EV_VERISIGN in OID.EV_POLICY_OIDS

    def test_dv_policy_is_not_ev(self):
        assert OID.DV_CABFORUM not in OID.EV_POLICY_OIDS

    def test_extension_oids_are_distinct(self):
        oids = {
            OID.BASIC_CONSTRAINTS,
            OID.CRL_DISTRIBUTION_POINTS,
            OID.CERTIFICATE_POLICIES,
            OID.AUTHORITY_INFO_ACCESS,
            OID.CRL_REASON,
            OID.CRL_NUMBER,
        }
        assert len(oids) == 6


class TestRegistry:
    def test_known_name(self):
        assert REGISTRY.name(OID.CRL_DISTRIBUTION_POINTS) == "cRLDistributionPoints"

    def test_unknown_oid_passthrough(self):
        assert REGISTRY.name("9.9.9") == "9.9.9"

    def test_reverse_lookup(self):
        assert REGISTRY.oid("cRLDistributionPoints") == OID.CRL_DISTRIBUTION_POINTS

    def test_reverse_lookup_unknown_raises(self):
        with pytest.raises(KeyError):
            REGISTRY.oid("nope")

    def test_register_custom(self):
        registry = OIDRegistry()
        registry.register("1.2.3.4", "testOid")
        assert registry.name("1.2.3.4") == "testOid"
        assert registry.oid("testOid") == "1.2.3.4"
        assert "1.2.3.4" in registry

    def test_contains(self):
        assert OID.AD_OCSP in REGISTRY
        assert "1.2.3.99" not in REGISTRY


class TestEncodeOidMemo:
    """``der.encode_oid`` is memoised; the memo must be invisible."""

    def test_invalid_oid_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(der.Asn1Error):
                der.encode_oid("5.1.2")

    def test_memo_is_bounded_and_exact(self):
        maxsize = der.encode_oid.cache_info().maxsize
        assert maxsize is not None
        dotted = [f"1.3.6.1.4.1.{arc}" for arc in range(maxsize + 10)]
        first = [der.encode_oid(oid) for oid in dotted]
        assert der.encode_oid.cache_info().currsize <= maxsize
        assert [der.encode_oid(oid) for oid in dotted] == first
        assert [der.decode_all(enc).as_oid() for enc in first] == dotted
