"""The word-block draws against plain-Python per-row readers.

Each column draw equals the per-row oracle's reading of the same words
(``tests/scan/reference_leaves.WordReader``) and leaves the stream where
the oracle leaves it, for any seed: ``getrandbits(32)`` words (the one
CPython identity the corpus rests on), float pairs, 160-bit serial blobs
(against ``getrandbits(160)`` and ``serial_blob``), and the exact
bounded step -- per-row bounds from 1 to ``2**32 - 1``, a bound whose
rejection path runs about half the time, a count of 0 and the refusal
of bounds outside ``(0, 2**32)``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scan import shardgen, streams
from repro.scan.corpus import serial_blob
from tests.scan.reference_leaves import WordReader

seeds = st.integers(min_value=0, max_value=2**128 - 1)
#: bounds that exercise every shift: no bits, one, two, a few, the
#: synthetic expiry span, the worst rejection rate and the widest word.
BOUNDS = (1, 2, 3, 28, 671, 2**31 + 1, 2**32 - 1)


class _Counting(random.Random):
    """A ``random.Random`` that lists the widths it was asked for."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.widths: list[int] = []

    def getrandbits(self, k: int) -> int:
        self.widths.append(k)
        return super().getrandbits(k)


class TestWordBlocks:
    @given(seed=seeds, count=st.integers(min_value=0, max_value=300))
    @settings(derandomize=True, max_examples=40, deadline=None)
    def test_words_are_the_getrandbits_32_draws(self, seed, count):
        rng, reference = random.Random(seed), random.Random(seed)
        block = streams.words(rng, count)
        assert block.dtype == np.uint32 and block.shape == (count,)
        assert block.tolist() == [reference.getrandbits(32) for _ in range(count)]
        assert rng.getstate() == reference.getstate()

    @given(seed=seeds, count=st.integers(min_value=0, max_value=300))
    @settings(derandomize=True, max_examples=40, deadline=None)
    def test_random_pairs_are_the_random_draws(self, seed, count):
        """The word-pair floats, bit for bit -- equal floats, not close
        ones; they happen to be CPython's ``random()`` values too."""
        rng, reference = random.Random(seed), random.Random(seed)
        floats = streams.random_pairs(rng, count)
        assert floats.dtype == np.float64 and floats.shape == (count,)
        assert floats.tolist() == WordReader(reference).uniforms(count)
        assert rng.getstate() == reference.getstate()
        scalar = random.Random(seed)
        assert floats.tolist() == [scalar.random() for _ in range(count)]

    @given(seed=seeds, count=st.integers(min_value=0, max_value=200))
    @settings(derandomize=True, max_examples=40, deadline=None)
    def test_serial_blobs_are_the_getrandbits_160_draws(self, seed, count):
        rng, reference = random.Random(seed), random.Random(seed)
        blob = shardgen._serial_column(rng, count, None)
        serials = [reference.getrandbits(160) for _ in range(count)]
        assert blob.dtype == np.uint8 and blob.shape == (count, 21)
        assert np.array_equal(blob, serial_blob(serials))
        assert serials == WordReader(random.Random(seed)).serials(count)
        assert rng.getstate() == reference.getstate()

    @pytest.mark.parametrize("count", [0, 1, 5, 300])
    def test_band_serials_are_consecutive(self, count):
        band = shardgen.SYNTH_SERIAL_BASE + shardgen.SYNTH_SERIAL_STRIDE * 2_799
        rng = random.Random(4)
        state = rng.getstate()
        blob = shardgen._serial_column(rng, count, band)
        assert np.array_equal(blob, serial_blob(range(band, band + count)))
        assert rng.getstate() == state

    @pytest.mark.parametrize("n", [0, -3, 2**32, 2**32 + 1, 2**64])
    def test_ranges_beyond_one_word_are_refused(self, n):
        """A bound outside ``(0, 2**32)``, for every row or for one row
        of several, is refused before any word is drawn."""
        rng = random.Random(5)
        state = rng.getstate()
        with pytest.raises(ValueError, match="2\\*\\*32"):
            streams.below(rng, n, 3)
        with pytest.raises(ValueError, match="2\\*\\*32"):
            streams.below(rng, np.array([7, n, 7]), 3)
        assert rng.getstate() == state

    def test_count_zero_draws_nothing(self):
        rng = random.Random(9)
        state = rng.getstate()
        assert streams.words(rng, 0).shape == (0,)
        assert streams.random_pairs(rng, 0).shape == (0,)
        assert streams.below(rng, 671, 0).shape == (0,)
        assert streams.below(rng, np.zeros(0, np.int64), 0).shape == (0,)
        assert rng.getstate() == state


class TestBelow:
    @pytest.mark.parametrize("bound", BOUNDS)
    @given(seed=seeds, count=st.integers(min_value=0, max_value=400))
    @settings(derandomize=True, max_examples=15, deadline=None)
    def test_one_bound_for_every_row(self, bound, seed, count):
        rng, reference = random.Random(seed), random.Random(seed)
        values = streams.below(rng, bound, count)
        assert values.dtype == np.int64 and values.shape == (count,)
        assert values.tolist() == WordReader(reference).below([bound] * count)
        assert ((0 <= values) & (values < bound)).all()
        assert rng.getstate() == reference.getstate()

    @given(
        seed=seeds,
        bounds=st.lists(st.sampled_from(BOUNDS), min_size=0, max_size=300),
    )
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_per_row_bounds(self, seed, bounds):
        rng, reference = random.Random(seed), random.Random(seed)
        values = streams.below(rng, np.array(bounds, np.int64), len(bounds))
        assert values.tolist() == WordReader(reference).below(bounds)
        assert (values < np.array(bounds, np.int64)).all()
        assert rng.getstate() == reference.getstate()

    def test_a_bound_of_2_31_plus_1_redraws_about_half_the_rows(self):
        """Its top 32 bits are the whole word, and a word is below the
        bound with probability about 1/2: each row takes two tries on
        average, so 4,000 rows take about 8,000 words over many redraw
        blocks, and every redrawn value is still exact."""
        bound, count = 2**31 + 1, 4_000
        rng, reference = _Counting(21), random.Random(21)
        values = streams.below(rng, bound, count)
        assert values.tolist() == WordReader(reference).below([bound] * count)
        assert rng.getstate() == reference.getstate()
        drawn = sum(rng.widths) // 32
        assert rng.widths[0] == 32 * count and len(rng.widths) > 5
        assert 0.9 * 2 * count < drawn < 1.1 * 2 * count
        assert values.max() >= 2**31 - 2**28

