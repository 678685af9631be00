"""Synthetic Web-PKI ecosystem and Internet-scan simulation.

Replaces the paper's Rapid7 / U. Michigan scan datasets (unavailable
offline) with a generator calibrated to the paper's reported aggregates.
See DESIGN.md §2 for the substitution rationale.
"""

from repro.scan.calibration import Calibration, PaperTargets
from repro.scan.records import IntermediateRecord, LeafRecord
from repro.scan.ecosystem import Ecosystem
from repro.scan.scanner import Rapid7Scanner, ScanSnapshot
from repro.scan.tls_scanner import StaplingProbeResult, TlsHandshakeScanner

__all__ = [
    "Calibration",
    "Ecosystem",
    "IntermediateRecord",
    "LeafRecord",
    "PaperTargets",
    "Rapid7Scanner",
    "ScanSnapshot",
    "StaplingProbeResult",
    "TlsHandshakeScanner",
]
