"""CRLSet serialization tests."""

from __future__ import annotations

import datetime
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crlset.format import (
    CrlSetSnapshot,
    serial_length,
    serial_to_bytes,
    serialized_size,
)


def parent(i: int) -> bytes:
    return hashlib.sha256(f"parent-{i}".encode()).digest()


def make_snapshot(parents=None, blocked=frozenset()):
    parents = parents or {
        parent(1): frozenset({1, 2, 3}),
        parent(2): frozenset({2**64, 5}),
    }
    return CrlSetSnapshot(
        sequence=42,
        date=datetime.date(2015, 3, 31),
        parents=parents,
        blocked_spkis=blocked,
    )


class TestSerials:
    def test_minimal_encoding(self):
        assert serial_to_bytes(0) == b"\x00"
        assert serial_to_bytes(255) == b"\xff"
        # CRLSet serials are big-endian ints, not DER tag bytes.
        assert serial_to_bytes(256) == b"\x01\x00"  # repro: noqa RPR006

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            serial_to_bytes(-1)
        with pytest.raises(ValueError):
            serial_length(-1)

    @given(st.integers(min_value=0, max_value=1 << 200))
    @settings(max_examples=100)
    def test_length_matches_encoding(self, serial):
        assert serial_length(serial) == len(serial_to_bytes(serial))


class TestSnapshot:
    def test_queries(self):
        snapshot = make_snapshot()
        assert snapshot.covers(parent(1))
        assert not snapshot.covers(parent(9))
        assert snapshot.is_revoked(parent(1), 2)
        assert not snapshot.is_revoked(parent(1), 99)
        assert not snapshot.is_revoked(parent(9), 2)
        assert snapshot.entry_count == 5
        assert snapshot.parent_count == 2

    def test_entries_set(self):
        snapshot = make_snapshot()
        assert (parent(1), 3) in snapshot.entries()
        assert len(snapshot.entries()) == 5

    def test_blocked_spkis(self):
        spki = hashlib.sha256(b"blocked").digest()
        snapshot = make_snapshot(blocked=frozenset({spki}))
        assert snapshot.is_blocked_spki(spki)
        assert not snapshot.is_blocked_spki(parent(1))

    def test_roundtrip(self):
        spki = hashlib.sha256(b"blocked").digest()
        snapshot = make_snapshot(blocked=frozenset({spki}))
        parsed = CrlSetSnapshot.from_bytes(snapshot.to_bytes())
        assert parsed.sequence == snapshot.sequence
        assert parsed.date == snapshot.date
        assert parsed.parents == snapshot.parents
        assert parsed.blocked_spkis == snapshot.blocked_spkis

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            CrlSetSnapshot.from_bytes(b"XXXX" + b"\x00" * 16)

    def test_trailing_bytes_rejected(self):
        blob = make_snapshot().to_bytes() + b"\x00"
        with pytest.raises(ValueError):
            CrlSetSnapshot.from_bytes(blob)

    def test_size_accounting_matches_wire(self):
        snapshot = make_snapshot()
        computed = serialized_size(
            {p: set(s) for p, s in snapshot.parents.items()}
        )
        assert computed == len(snapshot.to_bytes())

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=50),
            st.sets(st.integers(min_value=0, max_value=2**80), min_size=1, max_size=20),
            max_size=8,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, raw):
        parents = {parent(i): frozenset(serials) for i, serials in raw.items()}
        snapshot = CrlSetSnapshot(
            sequence=1, date=datetime.date(2014, 1, 1), parents=parents
        )
        parsed = CrlSetSnapshot.from_bytes(snapshot.to_bytes())
        assert parsed.parents == parents
