"""The per-position Bloom filter and cascade build, kept as a test oracle.

:class:`repro.crlset.bloom.BloomFilter` reduces each item's two SHA-256
halves modulo ``m`` once and then computes a batch's positions in
int64 blocks.  This module computes each position on its own from the
full 128-bit halves, ``(h1 + i * h2) mod m``, and sets or tests one bit
at a time in a ``bytearray``, as the filter did before it handled
batches.
``test_bloom.py`` checks that both give the same positions, filter
bytes, membership and cascade levels.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable, Iterator

from repro.crlset.bloom import optimal_k


def reference_positions(item: bytes, m_bits: int, k: int) -> Iterator[int]:
    digest = hashlib.sha256(item).digest()
    h1 = int.from_bytes(digest[:16], "big")
    h2 = int.from_bytes(digest[16:], "big") | 1
    for i in range(k):
        yield (h1 + i * h2) % m_bits


class ReferenceBloom:
    """One position, one bit at a time.

    ``bits`` maps each byte index with a bit set to that byte's value,
    so a filter with a large ``m`` costs only the bytes it touches.
    """

    def __init__(self, m_bits: int, k: int) -> None:
        self.m_bits = m_bits
        self.k = k
        self.bits: dict[int, int] = {}
        self.count = 0

    @classmethod
    def for_items(cls, n_items: int, m_bits: int) -> "ReferenceBloom":
        return cls(m_bits, optimal_k(m_bits, n_items))

    def add(self, item: bytes) -> None:
        for position in reference_positions(item, self.m_bits, self.k):
            byte = position >> 3
            self.bits[byte] = self.bits.get(byte, 0) | 1 << (position & 7)
        self.count += 1

    def __contains__(self, item: bytes) -> bool:
        return all(
            self.bits.get(position >> 3, 0) & 1 << (position & 7)
            for position in reference_positions(item, self.m_bits, self.k)
        )

    def to_bytes(self) -> bytes:
        """The whole filter, for an ``m`` small enough to hold."""
        out = bytearray((self.m_bits + 7) // 8)
        for byte, value in self.bits.items():
            out[byte] = value
        return bytes(out)


def _salted(key: bytes, depth: int) -> bytes:
    return depth.to_bytes(2, "big") + key


def _level_bits(n_items: int, fp_rate: float) -> int:
    return max(64, math.ceil(n_items * math.log2(1.0 / fp_rate) / math.log(2)))


def reference_cascade(
    revoked: Iterable[bytes], live: Iterable[bytes]
) -> list[ReferenceBloom]:
    """The cascade levels built key by key with :class:`ReferenceBloom`."""
    include = sorted(revoked)
    exclude = sorted(live)
    levels: list[ReferenceBloom] = []
    while include:
        depth = len(levels)
        if not levels and exclude:
            fp_rate = len(include) / (math.sqrt(2) * len(exclude))
            fp_rate = min(0.5, max(fp_rate, 1.0 / 4096))
        else:
            fp_rate = 0.5
        level = ReferenceBloom.for_items(
            len(include), _level_bits(len(include), fp_rate)
        )
        for key in include:
            level.add(_salted(key, depth))
        levels.append(level)
        false_positives = [key for key in exclude if _salted(key, depth) in level]
        include, exclude = false_positives, include
    return levels
