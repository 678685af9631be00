"""Certificates cache their decoded extension views per instance.

The cached accessors (``crl_urls``, ``ocsp_urls``, ``is_ev``, and the
CRLDP, AIA, policies and basic-constraints objects) must answer exactly
what a fresh decode answers, must never cache a failure, and must leave
identity (``==``, ``hash``, ``to_der()``) alone.
"""

from __future__ import annotations

import dataclasses
import datetime
import pickle

import pytest

from repro.asn1 import der
from repro.asn1.oid import OID
from repro.browsers.testsuite import BrowserTestHarness, generate_test_suite
from repro.pki.certificate import Certificate, CertificateBuilder
from repro.pki.extensions import (
    AuthorityInfoAccess,
    CrlDistributionPoints,
    Extension,
)
from repro.pki.keys import KeyPair
from repro.pki.name import Name

UTC = datetime.timezone.utc
NB = datetime.datetime(2014, 1, 1, tzinfo=UTC)
NA = datetime.datetime(2016, 1, 1, tzinfo=UTC)

#: every cached view, plus the derived accessors read through them.
VIEWS = (
    "basic_constraints",
    "crl_distribution_points",
    "authority_info_access",
    "certificate_policies",
    "is_ev",
    "crl_urls",
    "ocsp_urls",
)
DERIVED = ("is_ca", "has_revocation_info")


@pytest.fixture(scope="module")
def suite_certificates() -> list[Certificate]:
    """Every distinct certificate the 244-case suite builds."""
    harness = BrowserTestHarness()
    seen: dict[bytes, Certificate] = {}
    for case in generate_test_suite():
        pki = harness.build_pki(case)
        for cert in pki.chain:
            seen.setdefault(cert.to_der(), cert)
    return list(seen.values())


def _cached_views(cert: Certificate) -> set[str]:
    return set(VIEWS) & set(vars(cert))


def _builder() -> CertificateBuilder:
    return (
        CertificateBuilder()
        .subject(Name.make("views.example"))
        .issuer(Name.make("Views CA"))
        .serial_number(9)
        .public_key(KeyPair.generate("views-leaf").public_key)
        .validity(NB, NA)
    )


class TestSuiteCertificates:
    def test_suite_covers_every_extension_shape(self, suite_certificates):
        assert len(suite_certificates) > 244
        assert any(cert.is_ev for cert in suite_certificates)
        assert any(cert.is_ca for cert in suite_certificates)
        assert any(cert.crl_urls and cert.ocsp_urls for cert in suite_certificates)
        assert any(not cert.has_revocation_info for cert in suite_certificates)

    def test_cached_views_equal_a_fresh_decode(self, suite_certificates):
        for cert in suite_certificates:
            for name in VIEWS + DERIVED:
                first = getattr(cert, name)
                fresh = getattr(Certificate.from_der(cert.to_der()), name)
                assert first == fresh, (cert.subject, name)
                assert getattr(cert, name) == first
            assert _cached_views(cert) == set(VIEWS)

    def test_views_are_computed_once(self, suite_certificates):
        cert = suite_certificates[-1]
        for name in VIEWS:
            assert getattr(cert, name) is getattr(cert, name)


def _non_ascii(extension: Extension) -> bytes:
    """``extension``'s value with the host of its one URL made non-ASCII
    (one byte for one, so every length stays valid)."""
    return extension.value.replace(b"//x.", b"//\xfc.")


_URLS = ("http://x.example",)
_TRUNCATED = der.encode_sequence(der.encode_sequence())[:-1]
_NOT_ONE_VALUE = der.encode_null() + der.encode_null()


class TestMalformedExtensions:
    """A decode that fails raises ``Asn1Error`` on every access, and
    nothing is cached in its place."""

    CASES = {
        "crldp-truncated": (OID.CRL_DISTRIBUTION_POINTS, _TRUNCATED),
        "crldp-two-values": (OID.CRL_DISTRIBUTION_POINTS, _NOT_ONE_VALUE),
        "crldp-non-ascii-uri": (
            OID.CRL_DISTRIBUTION_POINTS,
            _non_ascii(CrlDistributionPoints(_URLS).to_extension()),
        ),
        "aia-truncated": (OID.AUTHORITY_INFO_ACCESS, _TRUNCATED),
        "aia-two-values": (OID.AUTHORITY_INFO_ACCESS, _NOT_ONE_VALUE),
        "aia-empty-description": (
            OID.AUTHORITY_INFO_ACCESS,
            der.encode_sequence(der.encode_sequence()),
        ),
        "aia-non-ascii-uri": (
            OID.AUTHORITY_INFO_ACCESS,
            _non_ascii(AuthorityInfoAccess(ocsp_urls=_URLS).to_extension()),
        ),
    }
    #: the views each extension feeds, and the accessors that read them.
    VIEWS_OF = {
        OID.CRL_DISTRIBUTION_POINTS: {"crl_distribution_points", "crl_urls"},
        OID.AUTHORITY_INFO_ACCESS: {"authority_info_access", "ocsp_urls"},
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_raises_on_every_access(self, case):
        oid, value = self.CASES[case]
        cert = (
            _builder()
            .add_extension(Extension(oid, critical=False, value=value))
            .sign(KeyPair.generate("views-ca"))
        )
        for name in sorted(self.VIEWS_OF[oid]) + ["has_revocation_info"]:
            for _ in range(3):
                with pytest.raises(der.Asn1Error):
                    getattr(cert, name)
        assert not _cached_views(cert) & self.VIEWS_OF[oid]
        # The certificate's other views still decode.
        assert cert.is_ev is False
        assert cert.is_ca is False


class TestIdentity:
    @pytest.fixture()
    def cert(self) -> Certificate:
        return (
            _builder()
            .crl_urls(["http://crl.views.example/0.crl", "ldap://dir.views.example"])
            .ocsp_urls(["http://ocsp.views.example"])
            .ev()
            .sign(KeyPair.generate("views-ca"))
        )

    def test_replace_starts_without_cached_views(self, cert):
        assert cert.crl_urls == ("http://crl.views.example/0.crl",)
        assert cert.is_ev
        assert _cached_views(cert) >= {"crl_urls", "is_ev"}

        copy = dataclasses.replace(cert, signature=b"resigned")
        assert _cached_views(copy) == set()
        assert copy.crl_urls == cert.crl_urls

        other = _builder().sign(KeyPair.generate("views-ca"))
        swapped = dataclasses.replace(cert, tbs=other.tbs)
        assert _cached_views(swapped) == set()
        assert swapped.crl_urls == ()
        assert swapped.ocsp_urls == ()
        assert not swapped.is_ev

    def test_equality_hash_and_der_unchanged(self, cert):
        blob = cert.to_der()
        before = hash(cert)
        untouched = Certificate.from_der(blob)
        for name in VIEWS + DERIVED:
            getattr(cert, name)
        assert _cached_views(cert) == set(VIEWS)
        assert _cached_views(untouched) == set()
        assert cert == untouched
        assert hash(cert) == hash(untouched) == before
        assert cert.to_der() == untouched.to_der() == blob
        assert {cert: 1}[untouched] == 1

    def test_pickle_round_trip(self, cert):
        assert cert.ocsp_urls  # populate a view before pickling
        clone = pickle.loads(pickle.dumps(cert))
        assert clone == cert
        assert clone.to_der() == cert.to_der()
        assert clone.ocsp_urls == cert.ocsp_urls
