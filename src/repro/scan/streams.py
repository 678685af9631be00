"""Seed-stable RNG substreams for sharded generation.

The ecosystem generator used to thread ONE ``random.Random`` through
every construction stage, which made the corpus a function of the exact
global draw order -- impossible to shard.  :func:`substream` replaces
that discipline: every generation unit (a brand's scaffold, a block of
leaves, a brand's revocation pass, one CRL's synthetic population, the
global Alexa shuffle) derives its own independent ``random.Random`` from
the study seed plus a stable string path.

Because a unit's stream depends only on ``(seed, path)`` -- never on
which shard or process executes it, nor on what ran before it -- the
merged corpus is byte-identical for any shard count and any worker
layout (``tests/scan/test_shardgen.py`` locks this down).

The word-block helpers draw runs of values from a stream as numpy
arrays, word for word as the scalar calls would, on three CPython
identities (docs/PERFORMANCE.md, "Generation in word blocks"):

* ``getrandbits(32 * n)`` is the stream's next ``n`` 32-bit words,
  least significant first (:func:`words`);
* ``random()`` is ``((a >> 5) * 2**26 + (b >> 6)) / 2**53`` of the next
  word pair (:func:`random_pairs`);
* ``randrange(n)`` for ``n < 2**32`` takes one word per try, keeps its
  top ``n.bit_length()`` bits, and returns the first try below ``n``
  (:func:`randrange_run`, :func:`led_records`).

Each helper asks for no more words than its scalar draws would consume,
so the stream ends exactly where they leave it.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np

__all__ = [
    "led_records",
    "random_pairs",
    "randrange_run",
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


def random_pairs(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """``random()`` of each word pair, bit for bit: the first word's top
    27 bits followed by the second's top 26, as a 53-bit fraction."""
    return ((first >> 5) * 67108864.0 + (second >> 6)) * (1.0 / 9007199254740992.0)


def _bits(n: int) -> int:
    """``n.bit_length()`` for a ``randrange(n)`` one word decides."""
    if not 0 < n < 2**32:
        raise ValueError(f"word blocks draw randrange(n) for 0 < n < 2**32, not {n}")
    return n.bit_length()


def randrange_run(rng: random.Random, n: int, count: int) -> np.ndarray:
    """``[rng.randrange(n) for _ in range(count)]`` as int64.

    Each block asks for one word per value still missing, the fewest
    the scalar loop could take, and keeps the tries below ``n`` in
    order.  ``n`` must be below ``2**32`` (one word per try).
    """
    shift = 32 - _bits(n)
    kept = [np.empty(0, np.uint32)]
    missing = count
    while missing > 0:
        tries = words(rng, missing) >> shift
        kept.append(tries[tries < n])
        missing -= len(kept[-1])
    return np.concatenate(kept).astype(np.int64)


def led_records(
    rng: random.Random, n: int, count: int, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` records, each a ``randrange(n)`` followed by ``width``
    words: the draws as int64 and the records' words as a ``(count,
    width)`` uint32 array.

    Every rejected try of a record's leading draw shifts that record and
    every later one by one word.  The walk visits the block's rejected
    words in order: one sits at a record's leading try when its distance
    from the first record, less the tries skipped so far, is a multiple
    of the record length.  The block first holds the fewest words the
    records could take, and grows by the words the skipped tries
    displaced until every record fits.
    """
    shift = 32 - _bits(n)
    stride = 1 + width
    block = words(rng, count * stride)
    skipped = []  # the record index of each rejected leading try
    walked = 0
    while True:
        rejected = np.flatnonzero(block[walked:] >> shift >= n) + walked
        for position in rejected.tolist():
            record, phase = divmod(position - len(skipped), stride)
            if not phase:
                skipped.append(record)
        walked = len(block)
        missing = count * stride + len(skipped) - walked
        if not missing:
            break
        block = np.concatenate([block, words(rng, missing)])
    shifts = np.cumsum(np.bincount(skipped, minlength=count))
    lead = np.arange(count) * stride + shifts
    rows = block[lead[:, None] + np.arange(1, stride)]
    return (block[lead] >> shift).astype(np.int64), rows
