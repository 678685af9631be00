"""Mechanism sweep: every registered revocation mechanism, one substrate.

The registry (:mod:`repro.mechanisms`, docs/MECHANISMS.md) is the only
source of what gets compared here: the paper's four mechanisms and the
post-2015 scenario pack (PAPERS.md) are measured side by side on
payload size, revoked-certificate coverage, vulnerability windows, and
per-session client cost.  Each mechanism's rendered block is digested
separately (``tests/experiments/golden/mechanisms-*.json``), so a
refactor of one mechanism is provably byte-neutral for the others.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cost import SessionCost, SessionCostModel
from repro.core.pipeline import MeasurementStudy
from repro.core.report import format_bytes
from repro.experiments.common import ExperimentResult, stage
from repro.mechanisms import Delivery, RevocationMechanism
from repro.revocation.checker import CheckOutcome

EXPERIMENT_ID = "mechanisms"
TITLE = "Revocation mechanisms compared on one substrate (scenario pack)"

#: sites per priced browsing session.
SESSION_SITES = 100


@dataclass(frozen=True)
class MechanismStats:
    """One mechanism's sweep row."""

    mechanism: RevocationMechanism
    payload_bytes: int
    revoked_total: int
    revoked_covered: int
    revoked_flagged_at_end: int
    mean_window_days: float
    session: SessionCost

    @property
    def name(self) -> str:
        return self.mechanism.name

    @property
    def coverage(self) -> float:
        return self.revoked_covered / self.revoked_total if self.revoked_total else 0.0

    @property
    def flagged_fraction(self) -> float:
        return (
            self.revoked_flagged_at_end / self.revoked_total
            if self.revoked_total
            else 0.0
        )


def sweep(study: MeasurementStudy) -> list[MechanismStats]:
    """Measure every mechanism in the study's suite (registry order).

    Each row depends only on the substrate and the mechanism itself --
    never on which other mechanisms are registered -- so the per-block
    digests stay stable as the registry grows.
    """
    end = study.calibration.measurement_end
    revoked_rows = np.flatnonzero(study.ecosystem.leaves.revoked_mask(end))
    revoked = study.ecosystem.leaf_records(revoked_rows)
    model = SessionCostModel(study.ecosystem)
    sites = model.sample_sites(SESSION_SITES)
    rows = []
    for mechanism in study.mechanism_suite:
        covered = [leaf for leaf in revoked if mechanism.covers(leaf)]
        flagged = sum(
            1
            for leaf in revoked
            if mechanism.lookup(leaf, end) is CheckOutcome.REVOKED
        )
        windows = mechanism.vulnerability_windows(revoked_rows)
        rows.append(
            MechanismStats(
                mechanism=mechanism,
                payload_bytes=mechanism.payload_bytes(end),
                revoked_total=len(revoked),
                revoked_covered=len(covered),
                revoked_flagged_at_end=flagged,
                mean_window_days=float(windows.mean()) if len(windows) else 0.0,
                session=model.session_for(sites, mechanism),
            )
        )
    return rows


def render_block(stats: MechanismStats) -> str:
    """One mechanism's report block (the golden-digest unit)."""
    mechanism = stats.mechanism
    model = mechanism.update_model()
    session = stats.session
    lines = [
        f"-- {mechanism.name}: {mechanism.title} --",
        f"delivery          {mechanism.delivery.value}"
        + ("  (network at connection time)" if mechanism.uses_network else ""),
        f"staleness window  {model.staleness_window_days:.1f} days"
        f" (update every {model.update_interval_days:.1f}"
        f" + {model.propagation_lag_days:.1f} propagation)",
        f"payload           {format_bytes(stats.payload_bytes)}",
        f"revoked coverage  {stats.coverage:.1%} of"
        f" {stats.revoked_total} revoked certs"
        f" ({stats.flagged_fraction:.1%} flagged at measurement end)",
        f"mean vuln window  {stats.mean_window_days:.1f} days",
        f"session cost      {session.checks} fetches,"
        f" {format_bytes(session.bytes_downloaded)}"
        f" / {SESSION_SITES} sites,"
        f" {session.latency_per_site_ms:.0f} ms/site,"
        f" {session.cache_hits} cache hits",
    ]
    return "\n".join(lines)


def mechanism_blocks(study: MeasurementStudy) -> dict[str, str]:
    """name -> rendered block, the contract behind
    :func:`repro.api.study.mechanism_digests`."""
    return {stats.name: render_block(stats) for stats in sweep(study)}


def run(study: MeasurementStudy) -> ExperimentResult:
    with stage(study, "mechanism_sweep"):
        rows = sweep(study)
    by_delivery: dict[Delivery, list[MechanismStats]] = {}
    for stats in rows:
        by_delivery.setdefault(stats.mechanism.delivery, []).append(stats)

    rendered = "\n\n".join(render_block(stats) for stats in rows)
    result = ExperimentResult(
        EXPERIMENT_ID,
        TITLE,
        rendered,
        data={
            "payload_bytes": {s.name: s.payload_bytes for s in rows},
            "coverage": {s.name: s.coverage for s in rows},
            "mean_window_days": {s.name: s.mean_window_days for s in rows},
            "session_bytes": {
                s.name: s.session.bytes_downloaded for s in rows
            },
        },
    )

    # Shape comparisons are keyed on *delivery class*, never on a
    # hard-coded mechanism list, so a restricted sweep (run_one's
    # mechanism= filter) degrades gracefully.
    pulled = by_delivery.get(Delivery.PULL_PER_CA, [])
    pushed = by_delivery.get(Delivery.PUSHED, [])
    if pulled and pushed:
        corpus = max(s.payload_bytes for s in pulled)
        largest_push = max(s.payload_bytes for s in pushed)
        ratio = corpus / largest_push if largest_push else float("inf")
        result.compare(
            "pushed aggregates vs the pulled CRL corpus",
            "orders of magnitude smaller (arXiv:2102.04288)",
            f"largest push {ratio:.0f}x smaller",
            shape_holds=ratio > 2,
        )
    offline = [
        s
        for s in rows
        if not s.mechanism.uses_network
        and s.mechanism.delivery is not Delivery.PULL_PER_CERT
    ]
    if offline:
        worst = max(s.session.bytes_downloaded for s in offline)
        result.compare(
            "pushed/lifetime mechanisms cost no per-site fetches",
            "0 bytes",
            format_bytes(worst),
            shape_holds=worst == 0,
        )
    exact = [s for s in rows if s.revoked_covered == s.revoked_total]
    partial = [s for s in rows if s.revoked_covered < s.revoked_total]
    if exact and partial:
        result.compare(
            "full-enrollment mechanisms beat curated-list coverage",
            "CRLite/postcertificates cover every revoked cert",
            f"{len(exact)} mechanism(s) at 100% vs best curated "
            f"{max(s.coverage for s in partial):.1%}",
            shape_holds=max(s.coverage for s in partial) < 1.0,
        )
    lifetime = by_delivery.get(Delivery.LIFETIME, [])
    for stats in lifetime:
        bound = stats.mechanism.update_model().staleness_window_days
        result.compare(
            "lifetime-bounded vulnerability window",
            f"<= {bound:.0f}-day certificate lifetime",
            f"mean {stats.mean_window_days:.1f} days",
            shape_holds=stats.mean_window_days <= bound,
        )
    return result
