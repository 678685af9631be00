"""CRL build/encode/decode/verify tests."""

from __future__ import annotations

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pki.keys import KeyPair
from repro.pki.name import Name
from repro.revocation.crl import CertificateRevocationList, RevokedEntry
from repro.revocation.reason import ReasonCode

UTC = datetime.timezone.utc
THIS = datetime.datetime(2015, 3, 1, tzinfo=UTC)
NEXT = datetime.datetime(2015, 3, 2, tzinfo=UTC)


@pytest.fixture(scope="module")
def issuer_keys():
    return KeyPair.generate("crl-test-ca")


@pytest.fixture(scope="module")
def issuer_name():
    return Name.make("CRL Test CA", organization="CRL Test CA")


def make_crl(issuer_name, issuer_keys, serials=(5, 10), reason=None):
    entries = [
        RevokedEntry(serial, THIS - datetime.timedelta(days=3), reason)
        for serial in serials
    ]
    return CertificateRevocationList.build(
        issuer=issuer_name,
        issuer_keys=issuer_keys,
        entries=entries,
        this_update=THIS,
        next_update=NEXT,
        crl_number=7,
        url="http://crl.example/test.crl",
    )


class TestBuild:
    def test_lookup(self, issuer_name, issuer_keys):
        crl = make_crl(issuer_name, issuer_keys)
        assert crl.is_revoked(5)
        assert crl.is_revoked(10)
        assert not crl.is_revoked(6)
        assert len(crl) == 2
        assert crl.serial_numbers() == {5, 10}

    def test_entries_sorted_by_serial(self, issuer_name, issuer_keys):
        crl = make_crl(issuer_name, issuer_keys, serials=(9, 1, 5))
        assert [e.serial_number for e in crl.entries] == [1, 5, 9]

    def test_entry_for(self, issuer_name, issuer_keys):
        crl = make_crl(issuer_name, issuer_keys, reason=ReasonCode.KEY_COMPROMISE)
        entry = crl.entry_for(5)
        assert entry is not None
        assert entry.reason is ReasonCode.KEY_COMPROMISE
        assert crl.entry_for(999) is None

    def test_expiry_window(self, issuer_name, issuer_keys):
        crl = make_crl(issuer_name, issuer_keys)
        assert not crl.is_expired(THIS + datetime.timedelta(hours=12))
        assert crl.is_expired(NEXT + datetime.timedelta(seconds=1))

    def test_bad_window_rejected(self, issuer_name, issuer_keys):
        with pytest.raises(ValueError):
            CertificateRevocationList.build(
                issuer=issuer_name,
                issuer_keys=issuer_keys,
                entries=[],
                this_update=NEXT,
                next_update=THIS,
            )


class TestWireFormat:
    def test_roundtrip(self, issuer_name, issuer_keys):
        crl = make_crl(issuer_name, issuer_keys, reason=ReasonCode.SUPERSEDED)
        parsed = CertificateRevocationList.from_der(crl.to_der(), url=crl.url)
        assert parsed.issuer == crl.issuer
        assert parsed.this_update == crl.this_update
        assert parsed.next_update == crl.next_update
        assert parsed.crl_number == crl.crl_number
        assert parsed.serial_numbers() == crl.serial_numbers()
        assert parsed.entry_for(5).reason is ReasonCode.SUPERSEDED
        assert parsed.signature == crl.signature

    def test_empty_crl_roundtrip(self, issuer_name, issuer_keys):
        crl = make_crl(issuer_name, issuer_keys, serials=())
        parsed = CertificateRevocationList.from_der(crl.to_der())
        assert len(parsed) == 0

    def test_signature_verifies(self, issuer_name, issuer_keys):
        crl = make_crl(issuer_name, issuer_keys)
        assert crl.verify_signature(issuer_keys.public_key)
        assert not crl.verify_signature(KeyPair.generate("other").public_key)

    def test_reencoded_matches(self, issuer_name, issuer_keys):
        crl = make_crl(issuer_name, issuer_keys)
        parsed = CertificateRevocationList.from_der(crl.to_der())
        assert parsed.to_der() == crl.to_der()

    def test_entry_size_near_paper_value(self, issuer_name, issuer_keys):
        """The paper measured ~38 bytes per CRL entry on average."""
        small = make_crl(issuer_name, issuer_keys, serials=())
        big = make_crl(issuer_name, issuer_keys, serials=tuple(range(1000, 2000)))
        per_entry = (big.encoded_size - small.encoded_size) / 1000
        assert 20 <= per_entry <= 50
        # A 10,000-entry CRL, header included, averages between 20 and
        # 50 bytes an entry, and parses back whole.
        der = make_crl(issuer_name, issuer_keys, serials=range(1000, 11_000)).to_der()
        assert 20 * 10_000 < len(der) < 50 * 10_000
        assert len(CertificateRevocationList.from_der(der)) == 10_000

    @given(
        st.sets(st.integers(min_value=0, max_value=2**64), min_size=0, max_size=30)
    )
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, serials):
        keys = KeyPair.generate("crl-prop")
        name = Name.make("Prop CA")
        crl = CertificateRevocationList.build(
            issuer=name,
            issuer_keys=keys,
            entries=[
                RevokedEntry(s, THIS - datetime.timedelta(days=1)) for s in serials
            ],
            this_update=THIS,
            next_update=NEXT,
        )
        parsed = CertificateRevocationList.from_der(crl.to_der())
        assert parsed.serial_numbers() == serials
