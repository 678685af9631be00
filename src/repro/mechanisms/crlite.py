"""CRLite-style filter cascades as a pluggable mechanism.

The post-2015 answer to the CRLSet coverage problem ("Revocation
Statuses on the Internet", arXiv:2102.04288): enroll *every* certificate
in a cascade of Bloom filters -- level 1 holds the revoked set, level 2
holds level 1's false positives among the live set, and so on until no
false positives remain.  For any enrolled certificate the cascade is
exact, at a fraction of the CRL corpus' size, and it composes with the
paper's own Figure-11 single-Bloom alternative
(:mod:`repro.crlset.bloom` supplies the filters).
"""

from __future__ import annotations

import datetime
import math

import numpy as np

from repro.crlset.bloom import BloomFilter
from repro.crlset.format import serial_to_bytes
from repro.mechanisms.base import (
    CheckCost,
    Delivery,
    RevocationMechanism,
    ServeModel,
    SessionState,
    UpdateModel,
)
from repro.mechanisms.registry import register
from repro.revocation.checker import CheckOutcome
from repro.scan.records import LeafRecord

__all__ = ["CrliteMechanism", "FilterCascade", "build_cascade"]

#: bytes of framing per cascade level (m, k, length prefix).
_LEVEL_HEADER_BYTES = 12


def _salted(key: bytes, depth: int) -> bytes:
    """Per-level hash salt (real CRLite does the same): without it, a
    revoked/live pair whose hash positions happen to coincide at one
    level coincides at *every* level -- the build keeps ping-ponging the
    pair between include and exclude and never terminates.  Salting by
    depth gives each level an independent hash family.
    """
    return depth.to_bytes(2, "big") + key


class FilterCascade:
    """An alternating chain of Bloom filters, exact over its universe."""

    def __init__(self, levels: list[BloomFilter]) -> None:
        self.levels = levels

    def __contains__(self, key: bytes) -> bool:
        for depth, level in enumerate(self.levels):
            if _salted(key, depth) not in level:
                # A miss at an even depth exonerates; at an odd depth it
                # un-flags a false positive, i.e. the key is revoked.
                return depth % 2 == 1
        # Survived every level: the key is a true member of the deepest
        # one (the build only stops once no false positives remain).
        return len(self.levels) % 2 == 1

    @property
    def size_bytes(self) -> int:
        return sum(
            level.size_bytes + _LEVEL_HEADER_BYTES for level in self.levels
        )

    def __len__(self) -> int:
        return len(self.levels)


def _level_bits(n_items: int, fp_rate: float) -> int:
    """Bloom sizing for a target FP rate: m = n * log2(1/p) / ln 2."""
    bits = math.ceil(n_items * math.log2(1.0 / fp_rate) / math.log(2))
    return max(64, bits)


def build_cascade(
    revoked: list[bytes], live: list[bytes]
) -> FilterCascade:
    """Build the cascade over a revoked/live key partition.

    Level 1 is sized so its expected false-positive count is about
    ``|revoked| / sqrt(2)`` (the CRLite balance point); deeper levels
    target a 0.5 FP rate, halving the carried set each round.  Inputs
    are sorted before insertion so the build is order-independent.
    """
    include = sorted(revoked)
    exclude = sorted(live)
    levels: list[BloomFilter] = []
    while include:
        depth = len(levels)
        if not levels and exclude:
            fp_rate = len(include) / (math.sqrt(2) * len(exclude))
            fp_rate = min(0.5, max(fp_rate, 1.0 / 4096))
        else:
            fp_rate = 0.5
        level = BloomFilter.for_items(
            len(include), _level_bits(len(include), fp_rate)
        )
        level.update([_salted(key, depth) for key in include])
        levels.append(level)
        hits = level.contains_many([_salted(key, depth) for key in exclude])
        false_positives = [exclude[i] for i in np.flatnonzero(hits).tolist()]
        include, exclude = false_positives, include
    return FilterCascade(levels)


@register
class CrliteMechanism(RevocationMechanism):
    name = "crlite-cascade"
    title = "CRLite filter cascade (pushed, exact over enrolled certs)"
    delivery = Delivery.PUSHED

    def __init__(self, host) -> None:
        super().__init__(host)
        self._cascade: FilterCascade | None = None
        self._spki_by_intermediate: dict[int, bytes] | None = None

    def _key(self, intermediate_id: int, serial_number: int) -> bytes:
        if self._spki_by_intermediate is None:
            self._spki_by_intermediate = {
                record.intermediate_id: record.spki_hash
                for record in self.ecosystem.intermediates
            }
        parent = self._spki_by_intermediate[intermediate_id]
        return parent + serial_to_bytes(serial_number)

    @property
    def cascade(self) -> FilterCascade:
        """The cascade published at measurement end, built once over
        the full enrolled universe (every leaf in the ecosystem), keyed
        from the leaf columns in cert_id order."""
        if self._cascade is None:
            leaves = self.ecosystem.leaves
            revoked = []
            live = []
            for intermediate, serial, is_revoked in zip(
                leaves.intermediate.tolist(),
                leaves.serial_numbers(),
                leaves.revoked_mask(self.measurement_end).tolist(),
            ):
                key = self._key(intermediate, serial)
                (revoked if is_revoked else live).append(key)
            self._cascade = build_cascade(revoked, live)
        return self._cascade

    def covers(self, leaf: LeafRecord) -> bool:
        return True  # every known certificate is enrolled

    def lookup(self, leaf: LeafRecord, at: datetime.date) -> CheckOutcome:
        flagged = self._key(leaf.intermediate_id, leaf.serial_number) in self.cascade
        if flagged and leaf.revoked_at is not None and leaf.revoked_at <= at:
            return CheckOutcome.REVOKED
        if at > leaf.not_after:
            return CheckOutcome.UNKNOWN
        return CheckOutcome.GOOD

    def update_model(self) -> UpdateModel:
        # Rebuilt and pushed daily from the aggregated CRL corpus.
        return UpdateModel(update_interval_days=1.0)

    def serve_model(self) -> ServeModel:
        # Filter-cascade deltas are small relative to the full cascade.
        return ServeModel(
            endpoint="aggregate",
            presign_interval_days=1.0,
            delta_fraction=0.05,
            pull_interval_days=1.0,
        )

    def check_cost(self, leaf: LeafRecord, session: SessionState) -> CheckCost:
        return CheckCost()  # pushed out of band

    def payload_bytes(self, at: datetime.date) -> int:
        return self.cascade.size_bytes
