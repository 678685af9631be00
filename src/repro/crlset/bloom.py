"""Bloom filters (paper §7.4).

The paper proposes replacing CRLSets with a Bloom filter: no false
negatives (a revoked certificate always hits), a tunable false-positive
rate (a hit triggers a CRL check before blocking), and an order of
magnitude more revocations in the same 250 KB budget.  Figure 11 sweeps
filter size m, population n, and false-positive rate p with the optimal
hash count k = ceil(m/n * ln 2).
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable, Iterator

import numpy as np

__all__ = ["BloomFilter", "false_positive_rate", "optimal_k", "capacity_at_fp_rate"]

#: the mask of bit ``i`` within its byte, by ``i``.
_BIT = np.array([1 << i for i in range(8)], np.uint8)
#: the low 128 bits of a SHA-256 digest (``h2``).
_LOW_HALF = (1 << 128) - 1
#: the number of set bits in each byte value.
_POPCOUNT = np.array([bin(value).count("1") for value in range(256)], np.uint8)


def optimal_k(m_bits: int, n_items: int) -> int:
    """The paper's formula: k = ceil(m/n * ln 2), at least 1."""
    if n_items <= 0:
        return 1
    return max(1, math.ceil(m_bits / n_items * math.log(2)))


def false_positive_rate(m_bits: int, n_items: int, k: int | None = None) -> float:
    """Analytic FP rate p = (1 - e^{-kn/m})^k."""
    if n_items <= 0:
        return 0.0
    if m_bits <= 0:
        return 1.0
    if k is None:
        k = optimal_k(m_bits, n_items)
    return (1.0 - math.exp(-k * n_items / m_bits)) ** k


def capacity_at_fp_rate(m_bits: int, p: float) -> int:
    """Largest n with FP rate <= p at optimal k: n = -m ln^2(2) / ln p."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    return int(-m_bits * (math.log(2) ** 2) / math.log(p))


class BloomFilter:
    """A classic Bloom filter over byte-string items.

    Hashing uses double hashing (Kirsch-Mitzenmacher) over SHA-256
    halves, which preserves the asymptotic FP behaviour with two base
    hashes: item ``x`` sets positions ``(h1 + i * h2) mod m`` for
    ``i < k``, with ``h1`` and ``h2`` the big-endian halves of
    ``sha256(x)`` and ``h2``'s low bit set.

    Each item is hashed once, and ``h1`` and ``h2`` are reduced modulo
    ``m`` first, so every later position is one step ``p += h2; p -= m
    if p >= m``: no products, every value below ``2 m``.  :meth:`update`
    and :meth:`contains_many` take those steps in int64 over a whole
    batch; ``add`` is a one-item ``update``.
    """

    def __init__(self, m_bits: int, k: int) -> None:
        if m_bits < 8:
            raise ValueError("m_bits must be >= 8")
        if k < 1:
            raise ValueError("k must be >= 1")
        self.m_bits = m_bits
        self.k = k
        self._bits = np.zeros((m_bits + 7) // 8, np.uint8)
        self.count = 0

    @classmethod
    def for_items(cls, n_items: int, m_bits: int) -> "BloomFilter":
        return cls(m_bits=m_bits, k=optimal_k(m_bits, n_items))

    def _hashes(self, items: Iterable[bytes]) -> tuple[list[int], list[int]]:
        """``(h1 mod m, h2 mod m)`` of each item: its first position and
        the step to the next one."""
        m = self.m_bits
        first, step = [], []
        for item in items:
            digest = int.from_bytes(hashlib.sha256(item).digest(), "big")
            first.append((digest >> 128) % m)
            step.append((digest & _LOW_HALF | 1) % m)
        return first, step

    def _positions(self, items: Iterable[bytes]) -> Iterator[np.ndarray]:
        """The batch's positions at each of the ``k`` steps: one int64
        array, advanced in place."""
        first, step = self._hashes(items)
        positions = np.array(first, np.int64)
        step = np.array(step, np.int64)
        for i in range(self.k):
            if i:
                positions += step
                positions[positions >= self.m_bits] -= self.m_bits
            yield positions

    def add(self, item: bytes) -> None:
        self.update((item,))

    def update(self, items: Iterable[bytes]) -> None:
        for positions in self._positions(items):
            np.bitwise_or.at(self._bits, positions >> 3, _BIT[positions & 7])
        self.count += len(positions)

    def contains_many(self, items: Iterable[bytes]) -> np.ndarray:
        """Membership of each item, as a boolean array."""
        member = True
        for positions in self._positions(items):
            member = member & (self._bits[positions >> 3] & _BIT[positions & 7] != 0)
            if not member.any():
                break
        return member

    def __contains__(self, item: bytes) -> bool:
        # One lookup takes the same steps in Python ints, stopping at
        # the first clear bit: a numpy call per step would cost more
        # than the whole lookup.
        (position,), (step,) = self._hashes((item,))
        for i in range(self.k):
            if i:
                position += step
                if position >= self.m_bits:
                    position -= self.m_bits
            if not self._bits.item(position >> 3) >> (position & 7) & 1:
                return False
        return True

    @property
    def size_bytes(self) -> int:
        return len(self._bits)

    @property
    def fill_ratio(self) -> float:
        set_bits = int(_POPCOUNT[self._bits].sum(dtype=np.int64))
        return set_bits / self.m_bits

    def expected_fp_rate(self) -> float:
        return false_positive_rate(self.m_bits, self.count, self.k)

    def measured_fp_rate(self, probes: Iterable[bytes]) -> float:
        """Empirical FP rate over items known not to be members."""
        hits = self.contains_many(probes)
        return int(hits.sum()) / len(hits) if len(hits) else 0.0
