"""CRLSet coverage analysis (paper §7.2, Figure 7).

Compares what the CRLSet ever contained against the full CRL corpus:
overall entry coverage (the paper's headline 0.35%), per-covered-CRL
coverage CDFs (all entries vs CRLSet-reason-coded entries), parent
coverage, and Alexa-popularity coverage.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

import numpy as np

from repro.crlset.builder import CrlSetHistory
from repro.scan.ecosystem import Ecosystem

__all__ = ["CoverageReport", "analyze_coverage"]


@dataclass(frozen=True)
class CoverageReport:
    """§7.2's coverage statistics for one builder run."""

    total_crl_entries: int
    crlset_entries_ever: int
    covered_crl_count: int
    total_crl_count: int
    parents_in_crlset: int
    total_ca_certs: int
    #: per covered CRL: fraction of ALL its entries ever in the CRLSet.
    per_crl_coverage_all: list[float]
    #: per covered CRL: fraction of its REASON-CODED-eligible entries.
    per_crl_coverage_eligible: list[float]
    fully_covered_fraction: float
    alexa_1m_revocations: int
    alexa_1m_in_crlset: int
    alexa_1k_revocations: int
    alexa_1k_in_crlset: int

    @property
    def coverage_fraction(self) -> float:
        if not self.total_crl_entries:
            return 0.0
        return self.crlset_entries_ever / self.total_crl_entries

    @property
    def parent_coverage_fraction(self) -> float:
        if not self.total_ca_certs:
            return 0.0
        return self.parents_in_crlset / self.total_ca_certs

    @property
    def alexa_1m_fraction(self) -> float:
        if not self.alexa_1m_revocations:
            return 0.0
        return self.alexa_1m_in_crlset / self.alexa_1m_revocations


def analyze_coverage(
    ecosystem: Ecosystem,
    history: CrlSetHistory,
    at: datetime.date | None = None,
) -> CoverageReport:
    """Computed from the sweep's per-entry columns.  Every (parent,
    serial) key appears once among them (the builder checks it), so an
    entry is "ever in the CRLSet" iff its own lifecycle appeared."""
    at = at or ecosystem.calibration.measurement_end
    entries = history.entries
    columns = entries.columns
    appeared = entries.first_appeared > 0
    total_entries = ecosystem.total_crl_entries(at)

    # Censor the final crawl lag: an entry revoked in the last few days
    # cannot have propagated into any CRLSet yet, and the paper compares
    # CRL and CRLSet snapshots of the same date.
    lag = datetime.timedelta(hours=ecosystem.calibration.crlset_crawl_period_hours[1])
    cutoff = at - lag - datetime.timedelta(days=1)
    visible = (columns.revoked <= cutoff.toordinal()) & (
        columns.expiry >= at.toordinal()
    )
    eligible = visible & entries.reason_eligible

    def per_crl(mask: np.ndarray) -> list[int]:
        return np.bincount(entries.crl[mask], minlength=len(entries.urls)).tolist()

    # The paper's "covered CRLs" are those that ever had an entry appear
    # in a CRLSet (295 of 2,800) -- not merely those Google crawls.
    per_all: list[float] = []
    per_eligible: list[float] = []
    covered_count = 0
    for ever, n_visible, visible_in, n_eligible, eligible_in in zip(
        per_crl(appeared),
        per_crl(visible),
        per_crl(visible & appeared),
        per_crl(eligible),
        per_crl(eligible & appeared),
    ):
        if not ever or not n_visible:
            continue
        covered_count += 1
        per_all.append(visible_in / n_visible)
        if n_eligible:
            per_eligible.append(eligible_in / n_eligible)

    fully = sum(1 for fraction in per_eligible if fraction >= 0.999)
    fully_fraction = fully / len(per_eligible) if per_eligible else 0.0

    # -- Alexa popularity coverage (§7.2, "Un-covered Revocations") --------
    alexa_1m_cut = ecosystem.calibration.scaled(1_000_000)
    alexa_1k_cut = max(1, ecosystem.calibration.scaled(1_000))
    alexa_1m_revoked = 0
    alexa_1m_in = 0
    alexa_1k_revoked = 0
    alexa_1k_in = 0
    ever_appeared = set(entries.keys(np.flatnonzero(appeared)))
    parent_by_int = {
        rec.intermediate_id: rec.spki_hash for rec in ecosystem.intermediates
    }
    leaves = ecosystem.leaves
    rows = np.flatnonzero((leaves.alexa != 0) & leaves.revoked_mask())
    for intermediate, serial, rank in zip(
        leaves.intermediate[rows].tolist(),
        leaves.serial_numbers(rows),
        leaves.alexa[rows].tolist(),
    ):
        covered = (parent_by_int[intermediate], serial) in ever_appeared
        if rank <= alexa_1m_cut:
            alexa_1m_revoked += 1
            alexa_1m_in += covered
        if rank <= alexa_1k_cut:
            alexa_1k_revoked += 1
            alexa_1k_in += covered

    # CA certificates: intermediates + roots, as in the paper's 2,168.
    total_ca_certs = len(ecosystem.intermediates) + len(ecosystem.roots)

    return CoverageReport(
        total_crl_entries=total_entries,
        crlset_entries_ever=len(ever_appeared),
        covered_crl_count=covered_count,
        total_crl_count=len(ecosystem.crls),
        parents_in_crlset=len(history.parents_ever),
        total_ca_certs=total_ca_certs,
        per_crl_coverage_all=sorted(per_all),
        per_crl_coverage_eligible=sorted(per_eligible),
        fully_covered_fraction=fully_fraction,
        alexa_1m_revocations=alexa_1m_revoked,
        alexa_1m_in_crlset=alexa_1m_in,
        alexa_1k_revocations=alexa_1k_revoked,
        alexa_1k_in_crlset=alexa_1k_in,
    )
