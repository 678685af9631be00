"""Seed-stable RNG substreams for sharded generation.

The ecosystem generator used to thread ONE ``random.Random`` through
every construction stage, which made the corpus a function of the exact
global draw order -- impossible to shard.  :func:`substream` replaces
that discipline: every generation unit (a brand's scaffold, a block of
leaves, a brand's revocation pass, one CRL's synthetic population, the
global Alexa ranking) derives its own independent ``random.Random`` from
the study seed plus a stable string path.

Because a unit's stream depends only on ``(seed, path)`` -- never on
which shard or process executes it, nor on what ran before it -- the
merged corpus is byte-identical for any shard count and any worker
layout (``tests/scan/test_shardgen.py`` locks this down).

Units draw whole columns, each from one block of the stream's 32-bit
words (docs/PERFORMANCE.md, "Generation in columns"):

* :func:`words` is one ``getrandbits(32 * n)``, read as the ``n`` words
  CPython builds it from, least significant first -- the one CPython
  identity the corpus rests on;
* :func:`random_pairs` makes a float in ``[0, 1)`` of each word pair, the
  first word's top 27 bits over the second's top 26;
* :func:`below` makes an integer below each row's bound, one word per
  try, redrawing the rejected rows from the next words.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np

__all__ = [
    "below",
    "random_pairs",
    "stream_seed",
    "substream",
    "words",
]


def stream_seed(seed: int, *path: object) -> int:
    """A 128-bit integer seed derived from ``seed`` and a stable path.

    Path elements are joined with ``/`` after ``str()`` conversion, so
    only str/int/float-like values with deterministic ``str()`` belong
    in a path (enforced here to keep accidental objects out).
    """
    for element in path:
        if not isinstance(element, (str, int)):
            raise TypeError(
                f"stream path elements must be str or int, got {element!r}"
            )
    material = "/".join([str(seed), *[str(element) for element in path]])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "big")


def substream(seed: int, *path: object) -> random.Random:
    """An independent ``random.Random`` for one generation unit."""
    return random.Random(stream_seed(seed, *path))


def words(rng: random.Random, count: int) -> np.ndarray:
    """The stream's next ``count`` 32-bit words, in draw order, as
    uint32: one ``getrandbits(32 * count)``, read least significant
    word first."""
    block = rng.getrandbits(32 * count)
    return np.frombuffer(block.to_bytes(4 * count, "little"), np.dtype("<u4"))


def random_pairs(rng: random.Random, count: int) -> np.ndarray:
    """``count`` floats in ``[0, 1)`` from one block of ``2 * count``
    words: row ``i`` is ``((a >> 5) * 2**26 + (b >> 6)) / 2**53`` of
    words ``2i`` and ``2i + 1``.  The numerator is below 2**53 and the
    divisor a power of two, so every float is exact."""
    block = words(rng, 2 * count)
    first, second = block[0::2], block[1::2]
    return ((first >> 5) * 67108864.0 + (second >> 6)) * (1.0 / 9007199254740992.0)


def below(rng: random.Random, bounds, count: int) -> np.ndarray:
    """``count`` integers as int64, row ``i`` uniform in ``[0, bound)``
    for its bound: ``bounds`` is one int for every row or an array of
    ``count``.

    The exact step: every row takes one word from one block and keeps
    its top ``(bound - 1).bit_length()`` bits; the rows whose try is not
    below their bound take the next block's words, in row order, until
    every row has a value.  A bound outside ``(0, 2**32)`` is refused
    before any word is drawn.
    """
    bounds = np.asarray(bounds)
    if bounds.size and not (0 < bounds.min() and bounds.max() < 2**32):
        raise ValueError(
            f"bounds must lie in (0, 2**32), not {bounds.min()}..{bounds.max()}"
        )
    bounds = bounds.astype(np.int64)
    # frexp's exponent of a positive int below 2**53 is its bit length.
    shift = np.broadcast_to(32 - np.frexp(bounds - 1)[1], (count,))
    bounds = np.broadcast_to(bounds, (count,))
    values = words(rng, count).astype(np.int64) >> shift
    rejected = np.flatnonzero(values >= bounds)
    while len(rejected):
        values[rejected] = words(rng, len(rejected)).astype(np.int64) >> shift[rejected]
        rejected = rejected[values[rejected] >= bounds[rejected]]
    return values
