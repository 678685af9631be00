"""Bloom filter tests: correctness invariants and the §7.4 analytics."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crlset.bloom import (
    BloomFilter,
    capacity_at_fp_rate,
    false_positive_rate,
    optimal_k,
)
from repro.mechanisms.crlite import build_cascade
from tests.crlset.reference_bloom import (
    ReferenceBloom,
    reference_cascade,
    reference_positions,
)

#: 2**33 + 1 bits is a 1 GiB filter: its positions need more than 32 bits.
_HUGE_M = 2**33 + 1


class TestConstruction:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BloomFilter(m_bits=4, k=1)
        with pytest.raises(ValueError):
            BloomFilter(m_bits=1024, k=0)
        # Positions need k m < 2**63; the filter is never allocated.
        with pytest.raises(ValueError):
            BloomFilter(m_bits=1 << 62, k=2)

    def test_size_bytes(self):
        assert BloomFilter(m_bits=8192, k=3).size_bytes == 1024

    def test_for_items_uses_optimal_k(self):
        bloom = BloomFilter.for_items(1000, 16384)
        assert bloom.k == optimal_k(16384, 1000)


class TestMembership:
    def test_no_false_negatives_small(self):
        bloom = BloomFilter(m_bits=1 << 16, k=5)
        items = [f"serial-{i}".encode() for i in range(2000)]
        bloom.update(items)
        assert all(item in bloom for item in items)

    def test_empty_filter_rejects_everything(self):
        bloom = BloomFilter(m_bits=1 << 12, k=4)
        assert b"anything" not in bloom

    def test_fp_rate_in_expected_range(self):
        # The second input is Figure 11's: one CRLSet's worth of
        # revocations in a 256 KB filter.
        for n, m_bits in ((5000, 1 << 16), (25_000, 256 * 1024 * 8)):
            bloom = BloomFilter.for_items(n, m_bits)
            bloom.update(f"in-{i}".encode() for i in range(n))
            assert bloom.count == n
            probes = (f"out-{i}".encode() for i in range(20000))
            measured = bloom.measured_fp_rate(probes)
            analytic = bloom.expected_fp_rate()
            assert measured < 4 * analytic + 0.01

    def test_fill_ratio_grows(self):
        bloom = BloomFilter(m_bits=1 << 12, k=3)
        assert bloom.fill_ratio == pytest.approx(0.0)
        bloom.update(f"{i}".encode() for i in range(100))
        assert 0.0 < bloom.fill_ratio < 1.0

    @given(st.sets(st.binary(min_size=1, max_size=16), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_no_false_negatives_property(self, items):
        """The §7.4 guarantee: a revoked cert is always flagged."""
        bloom = BloomFilter.for_items(len(items), 1 << 14)
        bloom.update(items)
        assert all(item in bloom for item in items)


class TestAnalytics:
    def test_optimal_k_formula(self):
        import math

        assert optimal_k(10_000, 1_000) == math.ceil(10 * math.log(2))
        assert optimal_k(10, 10_000) == 1  # floor at 1

    def test_fp_rate_monotone_in_n(self):
        m = 256 * 1024 * 8
        rates = [false_positive_rate(m, n) for n in (10_000, 100_000, 1_000_000)]
        assert rates[0] < rates[1] < rates[2]

    def test_fp_rate_edge_cases(self):
        assert false_positive_rate(1024, 0) == pytest.approx(0.0)
        assert false_positive_rate(0, 10) == pytest.approx(1.0)

    def test_capacity_inverse_of_fp_rate(self):
        m = 2 * 1024 * 1024 * 8
        n = capacity_at_fp_rate(m, 0.01)
        assert false_positive_rate(m, n) <= 0.0105

    def test_paper_headline_numbers(self):
        """§7.4: 2 MB at 1% FP covers ~1.7 M revocations; 256 KB covers
        an order of magnitude more than the ~25 k-entry CRLSet."""
        assert 1_500_000 <= capacity_at_fp_rate(2 * 1024 * 1024 * 8, 0.01) <= 2_000_000
        assert capacity_at_fp_rate(256 * 1024 * 8, 0.01) > 200_000

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            capacity_at_fp_rate(1024, 1.5)


@pytest.fixture
def small_pages():
    """Back new arrays with small pages, so a 1 GiB filter holds only
    the pages its bits touch (numpy asks for huge pages otherwise)."""
    try:
        from numpy._core.multiarray import _set_madvise_hugepage
    except ImportError:  # numpy 1.x
        from numpy.core.multiarray import _set_madvise_hugepage
    previous = _set_madvise_hugepage(False)
    yield
    _set_madvise_hugepage(previous)


def _random_items(seed: int, n: int) -> list[bytes]:
    rng = random.Random(seed)
    return [rng.randbytes(rng.randrange(0, 24)) for _ in range(n)]


class TestAgainstReference:
    """The batched int64 positions against the per-position 128-bit
    formula (tests/crlset/reference_bloom.py)."""

    @pytest.mark.parametrize("m_bits", [8, 1_000_003, _HUGE_M])
    @pytest.mark.parametrize("k", [1, 7, 73, 200])
    def test_positions_equal_reference(self, m_bits, k):
        items = _random_items(k, 40)
        steps = [
            row.tolist()
            for block in BloomFilter(m_bits, k)._position_blocks(items)
            for row in block
        ]
        assert len(steps) == k
        for index, item in enumerate(items):
            assert [step[index] for step in steps] == list(
                reference_positions(item, m_bits, k)
            )

    @pytest.mark.parametrize("m_bits", [8, 1_000_003])
    @pytest.mark.parametrize("k", [1, 7, 73, 200])
    def test_bytes_and_membership_equal_reference(self, m_bits, k):
        items = _random_items(m_bits + k, 300)
        bloom, reference = BloomFilter(m_bits, k), ReferenceBloom(m_bits, k)
        bloom.update(items)
        for item in items:
            reference.add(item)
        assert bytes(bloom._bits) == reference.to_bytes()
        assert bloom.count == reference.count == len(items)
        probes = items[::7] + _random_items(m_bits - k, 500)
        expected = [probe in reference for probe in probes]
        assert bloom.contains_many(probes).tolist() == expected
        assert [probe in bloom for probe in probes] == expected
        assert bloom.measured_fp_rate(probes) == sum(expected) / len(probes)

    @pytest.mark.usefixtures("small_pages")
    def test_huge_filter_equals_reference(self):
        k = 200
        items = _random_items(3, 16)
        bloom, reference = BloomFilter(_HUGE_M, k), ReferenceBloom(_HUGE_M, k)
        bloom.update(items)
        for item in items:
            reference.add(item)
        # every byte the reference set, and no other byte
        assert np.count_nonzero(bloom._bits) == len(reference.bits)
        for byte, value in reference.bits.items():
            assert bloom._bits[byte] == value
        probes = items + _random_items(4, 16)
        expected = [probe in reference for probe in probes]
        assert bloom.contains_many(probes).tolist() == expected
        assert [probe in bloom for probe in probes] == expected

    @pytest.mark.parametrize("m_bits, k", [(8, 3), (1_000_003, 9), (1 << 16, 73)])
    def test_batch_update_equals_repeated_add(self, m_bits, k):
        items = _random_items(k, 400)
        batched, one_by_one = BloomFilter(m_bits, k), BloomFilter(m_bits, k)
        batched.update(items)
        for item in items:
            one_by_one.add(item)
        assert bytes(batched._bits) == bytes(one_by_one._bits)
        assert batched.count == one_by_one.count
        assert batched.fill_ratio == one_by_one.fill_ratio

    def test_empty_batches(self):
        bloom = BloomFilter(1 << 12, 5)
        bloom.update([])
        assert bloom.count == 0 and np.count_nonzero(bloom._bits) == 0
        assert bloom.contains_many([]).tolist() == []
        # isclose against 0.0 with no abs_tol holds only for exactly 0.0.
        assert math.isclose(bloom.measured_fp_rate([]), 0.0)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cascade_levels_equal_reference_build(self, seed):
        rng = random.Random(seed)
        keys = sorted({rng.randbytes(12) for _ in range(3000)})
        revoked_share = rng.choice([0.01, 0.1, 0.4])
        revoked_set = {key for key in keys if rng.random() < revoked_share}
        revoked = sorted(revoked_set)
        live = [key for key in keys if key not in revoked_set]
        cascade = build_cascade(revoked, live)
        expected = reference_cascade(revoked, live)
        assert len(cascade.levels) == len(expected) > 1
        for level, reference in zip(cascade.levels, expected):
            assert (level.m_bits, level.k, level.count) == (
                reference.m_bits, reference.k, reference.count,
            )
            assert bytes(level._bits) == reference.to_bytes()
        assert [key in cascade for key in keys] == [
            key in revoked_set for key in keys
        ]
