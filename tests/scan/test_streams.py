"""The word-block helpers against the scalar ``random.Random`` draws.

Each helper equals the draws it replaces and leaves the stream where
they leave it, for any seed: ``getrandbits(32)`` words, ``random()``
pairs, 160-bit serial blobs (against ``serial_blob``), ``randrange(n)``
runs for ``n`` up to ``2**32 - 1``, a count of 0, the refusal of ``n``
outside one word, and the records led by a ``randrange`` draw, including
a walk whose first block has to grow.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scan import shardgen, streams
from repro.scan.corpus import serial_blob

seeds = st.integers(min_value=0, max_value=2**128 - 1)


def _scalar_words(rng: random.Random, count: int) -> list[int]:
    return [rng.getrandbits(32) for _ in range(count)]


class TestWordBlocks:
    @given(seed=seeds, count=st.integers(min_value=0, max_value=300))
    @settings(derandomize=True, max_examples=40, deadline=None)
    def test_words_are_the_getrandbits_32_draws(self, seed, count):
        rng, reference = random.Random(seed), random.Random(seed)
        block = streams.words(rng, count)
        assert block.dtype == np.uint32 and block.shape == (count,)
        assert block.tolist() == _scalar_words(reference, count)
        assert rng.getstate() == reference.getstate()

    @given(seed=seeds, count=st.integers(min_value=0, max_value=300))
    @settings(derandomize=True, max_examples=40, deadline=None)
    def test_random_pairs_are_the_random_draws(self, seed, count):
        rng, reference = random.Random(seed), random.Random(seed)
        block = streams.words(rng, 2 * count)
        rolls = streams.random_pairs(block[0::2], block[1::2])
        expected = [reference.random() for _ in range(count)]
        assert rolls.dtype == np.float64
        # Bit for bit: equal floats, not close ones.
        assert rolls.tolist() == expected
        assert rng.getstate() == reference.getstate()

    @given(seed=seeds, count=st.integers(min_value=0, max_value=200))
    @settings(derandomize=True, max_examples=40, deadline=None)
    def test_serial_blobs_are_the_getrandbits_160_draws(self, seed, count):
        """A synthetic entry's roll and 160-bit serial, as the generator
        lays them out: seven words per entry."""
        rng, reference = random.Random(seed), random.Random(seed)
        drawn = streams.words(rng, 7 * count).reshape(-1, 7)
        rolls, serials = [], []
        for _ in range(count):
            rolls.append(reference.random())
            serials.append(reference.getrandbits(160))
        blob = shardgen._synthetic_serials(drawn, None)
        assert blob.dtype == np.uint8 and blob.shape == (count, 21)
        assert np.array_equal(blob, serial_blob(serials))
        assert streams.random_pairs(drawn[:, 0], drawn[:, 1]).tolist() == rolls
        assert rng.getstate() == reference.getstate()

    @pytest.mark.parametrize("count", [0, 1, 5, 300])
    def test_band_serials_are_consecutive(self, count):
        band = shardgen.SYNTH_SERIAL_BASE + shardgen.SYNTH_SERIAL_STRIDE * 2_799
        drawn = np.zeros((count, 2), np.uint32)
        blob = shardgen._synthetic_serials(drawn, band)
        assert np.array_equal(blob, serial_blob(range(band, band + count)))

    @pytest.mark.parametrize("n", [1, 2, 3, 500, 671, 2**31, 2**32 - 1])
    @given(seed=seeds, count=st.integers(min_value=0, max_value=400))
    @settings(derandomize=True, max_examples=15, deadline=None)
    def test_randrange_runs_are_the_randrange_draws(self, n, seed, count):
        rng, reference = random.Random(seed), random.Random(seed)
        run = streams.randrange_run(rng, n, count)
        assert run.dtype == np.int64
        assert run.tolist() == [reference.randrange(n) for _ in range(count)]
        assert rng.getstate() == reference.getstate()

    @pytest.mark.parametrize("n", [0, -3, 2**32, 2**32 + 1, 2**64])
    def test_ranges_beyond_one_word_are_refused(self, n):
        rng = random.Random(5)
        state = rng.getstate()
        with pytest.raises(ValueError, match="2\\*\\*32"):
            streams.randrange_run(rng, n, 3)
        with pytest.raises(ValueError, match="2\\*\\*32"):
            streams.led_records(rng, n, 3, 2)
        assert rng.getstate() == state

    def test_count_zero_draws_nothing(self):
        rng = random.Random(9)
        state = rng.getstate()
        assert streams.words(rng, 0).shape == (0,)
        assert streams.randrange_run(rng, 671, 0).shape == (0,)
        draws, rows = streams.led_records(rng, 500, 0, 7)
        assert draws.shape == (0,) and rows.shape == (0, 7)
        assert rng.getstate() == state

    @staticmethod
    def _led_reference(rng: random.Random, n: int, count: int, width: int):
        draws, rows = [], []
        for _ in range(count):
            draws.append(rng.randrange(n))
            rows.append(_scalar_words(rng, width))
        return draws, rows

    @pytest.mark.parametrize("n", [1, 3, 500, 2**31 + 1])
    @pytest.mark.parametrize("width", [0, 2, 7])
    @given(seed=seeds, count=st.integers(min_value=0, max_value=250))
    @settings(derandomize=True, max_examples=15, deadline=None)
    def test_led_records_are_the_scalar_draws(self, n, width, seed, count):
        rng, reference = random.Random(seed), random.Random(seed)
        draws, rows = streams.led_records(rng, n, count, width)
        expected_draws, expected_rows = self._led_reference(
            reference, n, count, width
        )
        assert draws.dtype == np.int64 and rows.dtype == np.uint32
        assert rows.shape == (count, width)
        assert draws.tolist() == expected_draws
        assert rows.tolist() == expected_rows
        assert rng.getstate() == reference.getstate()

    def test_a_rejected_try_at_the_end_of_the_first_block_grows_it(self):
        """Seed 14 rejects the leading tries at words 60, 97 and 149 of 50
        three-word records: the last word of the first 150-word block is
        a rejected try, so the block grows by the three words it and the
        two before it displaced."""
        seed, count, width = 14, 50, 2
        stride = 1 + width
        scalar = random.Random(seed)
        rejected, position = [], 0
        for _ in range(count):
            while scalar.getrandbits(32) >> 23 >= 500:
                rejected.append(position)
                position += 1
            position += stride
            _scalar_words(scalar, width)
        assert rejected == [60, 97, count * stride - 1]

        rng, reference = random.Random(seed), random.Random(seed)
        draws, rows = streams.led_records(rng, 500, count, width)
        expected_draws, expected_rows = self._led_reference(
            reference, 500, count, width
        )
        assert draws.tolist() == expected_draws
        assert rows.tolist() == expected_rows
        assert rng.getstate() == reference.getstate() == scalar.getstate()
