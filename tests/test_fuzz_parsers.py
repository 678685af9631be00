"""Fuzz tests: the wire-format parsers must fail closed.

A client parsing attacker-supplied bytes (a certificate chain, a CRL, an
OCSP response) must either produce a structured object or raise
``Asn1Error`` -- never crash with an internal exception.  Hypothesis
feeds each parser random bytes and structured mutations of valid
encodings.
"""

from __future__ import annotations

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asn1 import der
from repro.asn1.der import Asn1Error
from repro.pki.certificate import Certificate, CertificateBuilder
from repro.pki.keys import KeyPair
from repro.pki.name import Name
from repro.revocation.crl import CertificateRevocationList, RevokedEntry
from repro.revocation.ocsp import CertStatus, OcspResponse

UTC = datetime.timezone.utc
NB = datetime.datetime(2014, 1, 1, tzinfo=UTC)
NA = datetime.datetime(2016, 1, 1, tzinfo=UTC)


@pytest.fixture(scope="module")
def valid_cert_der() -> bytes:
    keys = KeyPair.generate("fuzz-ca")
    return (
        CertificateBuilder()
        .subject(Name.make("fuzz.example"))
        .issuer(Name.make("Fuzz CA"))
        .serial_number(7)
        .public_key(keys.public_key)
        .validity(NB, NA)
        .crl_urls(["http://crl.fuzz.example/0.crl"])
        .sign(keys)
    ).to_der()


@pytest.fixture(scope="module")
def valid_crl_der() -> bytes:
    keys = KeyPair.generate("fuzz-crl")
    return CertificateRevocationList.build(
        issuer=Name.make("Fuzz CA"),
        issuer_keys=keys,
        entries=[RevokedEntry(5, NB)],
        this_update=NB,
        next_update=NB + datetime.timedelta(days=1),
    ).to_der()


@pytest.fixture(scope="module")
def valid_ocsp_der() -> bytes:
    keys = KeyPair.generate("fuzz-ocsp")
    return OcspResponse.build(
        responder_keys=keys,
        cert_status=CertStatus.GOOD,
        issuer_key_hash=keys.key_id,
        serial_number=5,
        this_update=NB,
        next_update=NB + datetime.timedelta(days=1),
    ).to_der()


class TestRandomBytes:
    @given(st.binary(max_size=200))
    @settings(max_examples=150)
    def test_certificate_parser_fails_closed(self, blob):
        try:
            Certificate.from_der(blob)
        except Asn1Error:
            pass

    @given(st.binary(max_size=200))
    @settings(max_examples=150)
    def test_crl_parser_fails_closed(self, blob):
        try:
            CertificateRevocationList.from_der(blob)
        except Asn1Error:
            pass

    @given(st.binary(max_size=200))
    @settings(max_examples=150)
    def test_ocsp_parser_fails_closed(self, blob):
        try:
            OcspResponse.from_der(blob)
        except Asn1Error:
            pass


class TestMutatedValidEncodings:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_certificate_bitflips(self, valid_cert_der, data):
        blob = bytearray(valid_cert_der)
        position = data.draw(st.integers(0, len(blob) - 1))
        blob[position] ^= data.draw(st.integers(1, 255))
        try:
            parsed = Certificate.from_der(bytes(blob))
        except Asn1Error:
            return
        # If it still parses, it must re-encode without crashing.
        parsed.to_der()

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_crl_truncations(self, valid_crl_der, data):
        cut = data.draw(st.integers(0, len(valid_crl_der) - 1))
        try:
            CertificateRevocationList.from_der(valid_crl_der[:cut])
        except Asn1Error:
            return

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_ocsp_bitflips(self, valid_ocsp_der, data):
        blob = bytearray(valid_ocsp_der)
        position = data.draw(st.integers(0, len(blob) - 1))
        blob[position] ^= data.draw(st.integers(1, 255))
        try:
            OcspResponse.from_der(bytes(blob))
        except Asn1Error:
            return

    def test_tampered_cert_fails_signature(self, valid_cert_der):
        """A parse-surviving mutation must still fail verification."""
        keys = KeyPair.generate("fuzz-ca")
        original = Certificate.from_der(valid_cert_der)
        assert original.verify_signature(keys.public_key)
        blob = bytearray(valid_cert_der)
        # Flip the serial-number content byte (INTEGER 7 in the TBS).
        serial_offset = valid_cert_der.index(b"\x02\x01\x07") + 2
        blob[serial_offset] ^= 0x01
        tampered = Certificate.from_der(bytes(blob))
        assert tampered.serial_number != original.serial_number
        assert not tampered.verify_signature(keys.public_key)


def _with_time(blob: bytes, old: bytes, new: bytes) -> bytes:
    """Re-encode ``blob`` with every time whose content is ``old``
    replaced by ``new`` (lengths of the enclosing values adjusted)."""

    def encode(node: der.DecodedValue) -> bytes:
        if node.children:
            body = b"".join(encode(child) for child in node.children)
        elif node.tag in (der.Tag.UTC_TIME, der.Tag.GENERALIZED_TIME) and (
            node.value == old
        ):
            body = new
        else:
            body = node.value
        return der.encode_tlv(node.tag, body)

    return encode(der.decode_all(blob))


class TestNonCanonicalTimes:
    """A time that is not exactly DER's fixed-width ``...Z`` form makes
    the whole object fail to parse, with ``Asn1Error``."""

    UTC_NB = b"140101000000Z"
    GENERALIZED_NB = b"20140101000000Z"

    @pytest.mark.parametrize(
        "new", [b"1401010000Z", b"14101000000Z", b"140101000000+0000", b"1401010000000"]
    )
    def test_certificate(self, valid_cert_der, new):
        assert _with_time(valid_cert_der, self.UTC_NB, self.UTC_NB) == valid_cert_der
        with pytest.raises(Asn1Error):
            Certificate.from_der(_with_time(valid_cert_der, self.UTC_NB, new))

    @pytest.mark.parametrize(
        "new", [b"1401010000Z", b"140101000000.0Z", b"140132000000Z"]
    )
    def test_crl(self, valid_crl_der, new):
        assert _with_time(valid_crl_der, self.UTC_NB, self.UTC_NB) == valid_crl_der
        with pytest.raises(Asn1Error):
            CertificateRevocationList.from_der(
                _with_time(valid_crl_der, self.UTC_NB, new)
            )

    @pytest.mark.parametrize(
        "new",
        [
            b"201401010000Z",
            b"20140101000000.5Z",
            b"20140101000000+0000",
            b"20140229000000Z",
            b"140101000000Z",
        ],
    )
    def test_ocsp_response(self, valid_ocsp_der, new):
        same = _with_time(valid_ocsp_der, self.GENERALIZED_NB, self.GENERALIZED_NB)
        assert same == valid_ocsp_der
        with pytest.raises(Asn1Error):
            OcspResponse.from_der(_with_time(valid_ocsp_der, self.GENERALIZED_NB, new))
