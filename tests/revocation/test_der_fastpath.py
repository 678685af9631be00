"""The bulk DER fast path must be byte-identical to the slow path.

Three layers are covered: the sequence assembler primitives in
``repro.asn1.der``, per-entry size arithmetic in ``repro.revocation.sizing``,
and the incremental ``CertificateRevocationList.encoded_size`` property --
each compared against a full re-encode on randomized inputs.
"""

from __future__ import annotations

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asn1 import der
from repro.pki.keys import KeyPair
from repro.pki.name import Name
from repro.revocation.crl import CertificateRevocationList, RevokedEntry
from repro.revocation.reason import ReasonCode
from repro.revocation.sizing import revoked_entry_size

UTC = datetime.timezone.utc
THIS = datetime.datetime(2014, 11, 3, 12, 0, tzinfo=UTC)
NEXT = THIS + datetime.timedelta(days=1)

serials = st.integers(min_value=0, max_value=1 << 168)
reasons = st.one_of(st.none(), st.sampled_from(list(ReasonCode)))
revocation_times = st.datetimes(
    min_value=datetime.datetime(1990, 1, 1),
    max_value=datetime.datetime(2120, 12, 31),
).map(lambda dt: dt.replace(tzinfo=UTC, microsecond=0))


@pytest.fixture(scope="module")
def issuer_keys():
    return KeyPair.generate("fastpath-test-ca")


@pytest.fixture(scope="module")
def issuer_name():
    return Name.make("Fastpath Test CA", organization="Fastpath Test CA")


class TestSequenceAssembler:
    @given(st.lists(st.binary(min_size=0, max_size=64), max_size=20))
    def test_encode_sequence_many_matches_varargs(self, chunks):
        assert der.encode_sequence_many(chunks) == der.encode_sequence(*chunks)

    @given(st.lists(st.binary(min_size=0, max_size=64), max_size=20))
    def test_assembler_matches_varargs(self, chunks):
        assembler = der.SequenceAssembler()
        for chunk in chunks:
            assembler.append(chunk)
        assert assembler.content_length == sum(len(c) for c in chunks)
        assert assembler.finish() == der.encode_sequence(*chunks)

    def test_accepts_generators(self):
        parts = [der.encode_integer(i) for i in range(5)]
        assert der.encode_sequence_many(iter(parts)) == der.encode_sequence(*parts)

    @given(st.integers(min_value=0, max_value=0x7F))
    def test_small_integer_fast_path_identical(self, value):
        # The precomputed table must match the generic TLV encoder.
        assert der.encode_integer(value) == der.encode_tlv(
            der.Tag.INTEGER, bytes([value])
        )


class TestRevokedEntrySize:
    @given(serial=serials, reason=reasons, when=revocation_times)
    @settings(max_examples=200, deadline=None)
    def test_matches_real_encoding(self, serial, reason, when):
        entry = RevokedEntry(serial, when, reason)
        predicted = revoked_entry_size(
            serial,
            with_reason=reason is not None,
            generalized_time=when.year > 2049,
        )
        assert predicted == len(entry.to_der())

    @given(serial=st.integers(min_value=-(1 << 96), max_value=-1))
    @settings(max_examples=50, deadline=None)
    def test_negative_serial_fallback(self, serial):
        entry = RevokedEntry(serial, THIS, None)
        assert revoked_entry_size(serial) == len(entry.to_der())


class TestIncrementalEncodedSize:
    @given(
        entries=st.lists(
            st.tuples(serials, reasons, revocation_times),
            min_size=0,
            max_size=30,
            unique_by=lambda t: t[0],
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_encoded_size_matches_to_der(
        self, issuer_name, issuer_keys, entries
    ):
        crl = CertificateRevocationList.build(
            issuer=issuer_name,
            issuer_keys=issuer_keys,
            entries=[
                RevokedEntry(serial, when, reason)
                for serial, reason, when in entries
            ],
            this_update=THIS,
            next_update=NEXT,
            crl_number=42,
            url="http://crl.example/fastpath.crl",
        )
        assert crl.encoded_size == len(crl.to_der())
