"""CRLSets: Chrome's pushed revocation list (paper §7).

Implements the documented CRLSet construction rules, coverage/dynamics
analyses, and the paper's proposed Bloom-filter replacement (§7.4) plus
Langley's Golomb-Compressed-Set refinement.
"""

from repro.crlset.bloom import BloomFilter, optimal_k, false_positive_rate
from repro.crlset.gcs import GolombCompressedSet
from repro.crlset.format import CrlSetSnapshot
from repro.crlset.builder import CrlSetBuilder, CrlSetHistory
from repro.crlset.coverage import CoverageReport, analyze_coverage
from repro.crlset.dynamics import DynamicsReport, analyze_dynamics

__all__ = [
    "BloomFilter",
    "CoverageReport",
    "CrlSetBuilder",
    "CrlSetHistory",
    "CrlSetSnapshot",
    "DynamicsReport",
    "GolombCompressedSet",
    "analyze_coverage",
    "analyze_dynamics",
    "false_positive_rate",
    "optimal_k",
]
