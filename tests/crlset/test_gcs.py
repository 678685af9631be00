"""Golomb Compressed Set tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crlset.bloom import BloomFilter
from repro.crlset.gcs import GolombCompressedSet


class TestGcs:
    def test_no_false_negatives(self):
        items = [f"serial-{i}".encode() for i in range(3000)]
        gcs = GolombCompressedSet(items, fp_rate=0.01)
        assert all(item in gcs for item in items)

    def test_fp_rate_reasonable(self):
        items = [f"in-{i}".encode() for i in range(3000)]
        gcs = GolombCompressedSet(items, fp_rate=0.01)
        probes = [f"out-{i}".encode() for i in range(20000)]
        hits = sum(1 for p in probes if p in gcs)
        assert hits / len(probes) < 0.04

    def test_empty_set(self):
        gcs = GolombCompressedSet([], fp_rate=0.01)
        assert b"x" not in gcs
        assert gcs.n == 0

    def test_fp_rate_validation(self):
        with pytest.raises(ValueError):
            GolombCompressedSet([b"a"], fp_rate=0.0)

    def test_smaller_than_bloom(self):
        """Langley's point [25]: GCS beats Bloom filters on space at the
        same false-positive rate.  At one paper-sized CRLSet (§7.4:
        25,000 revocations, 1% FP) a real Bloom filter is in turn
        smaller than the raw CRLSet bytes, and neither drops a member."""
        items = [f"serial-{i}".encode() for i in range(5000)]
        gcs = GolombCompressedSet(items, fp_rate=0.01)
        # Bloom at 1% FP needs ~9.6 bits/item; GCS ~ log2(100)+1.5 ~ 8.1.
        bloom_bits = 5000 * 9.6
        assert gcs.size_bytes * 8 < bloom_bits

        n = 25_000
        items = [f"revoked-serial-{i}".encode() for i in range(n)]
        bloom = BloomFilter.for_items(n, m_bits=n * 10)  # ~1% FP
        bloom.update(items)
        gcs = GolombCompressedSet(items, fp_rate=0.01)
        # The raw CRLSet encoding of the same set: a length byte and a
        # ~4-byte serial per entry, plus one parent's framing.
        raw_bytes = n * (1 + 4) + 36
        assert gcs.size_bytes < bloom.size_bytes < raw_bytes
        assert all(item in bloom for item in items[:500])
        assert all(item in gcs for item in items[:500])

    def test_bits_per_item(self):
        items = [f"serial-{i}".encode() for i in range(2000)]
        gcs = GolombCompressedSet(items, fp_rate=0.01)
        assert 6.0 <= gcs.bits_per_item() <= 10.0

    @given(st.sets(st.binary(min_size=1, max_size=12), min_size=1, max_size=150))
    @settings(max_examples=25, deadline=None)
    def test_no_false_negatives_property(self, items):
        gcs = GolombCompressedSet(items, fp_rate=0.05)
        assert all(item in gcs for item in items)
