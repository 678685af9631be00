"""§4.2: reasons for revocation.

The paper repeats Zhang et al.'s [52] methodology: extract the CRL reason
code for every revocation and conclude that reason codes are mostly
absent and "should likely be viewed with caution" -- while still being
the basis of Google's CRLSet admission rule.
"""

from __future__ import annotations

from collections import Counter

from repro.core.pipeline import MeasurementStudy
from repro.core.report import format_table
from repro.experiments.common import ExperimentResult, stage
from repro.revocation.reason import ReasonCode, is_crlset_eligible

EXPERIMENT_ID = "section42"
TITLE = "Reasons for revocation (paper §4.2)"


def run(study: MeasurementStudy) -> ExperimentResult:
    with stage(study, "collect_revocations"):
        leaves = study.ecosystem.leaves
        codes = leaves.reason[leaves.revoked_mask()].tolist()
        # Rows in cert_id order: most_common breaks ties by first insertion.
        reasons = [None if code < 0 else ReasonCode(code) for code in codes]
    counts = Counter(
        "(no reason code)" if reason is None else reason.label
        for reason in reasons
    )
    total = len(reasons)
    rows = [
        (label, count, f"{count / total:.1%}")
        for label, count in counts.most_common()
    ]
    rendered = format_table(
        ["reason code", "revocations", "fraction"],
        rows,
        title=f"reason codes across {total:,} revocations",
    )
    eligible = sum(1 for reason in reasons if is_crlset_eligible(reason))
    rendered += (
        f"\n\nCRLSet-eligible (no reason / Unspecified / KeyCompromise / "
        f"CACompromise / AACompromise): {eligible / total:.1%}"
    )

    result = ExperimentResult(
        EXPERIMENT_ID,
        TITLE,
        rendered,
        data={"counts": dict(counts), "total": total},
    )
    no_reason = counts.get("(no reason code)", 0) / total
    result.compare(
        "most revocations carry no reason code",
        "the vast majority",
        f"{no_reason:.0%}",
        shape_holds=no_reason > 0.5,
    )
    result.compare(
        "reason codes admit most entries to CRLSets",
        "the admission rule filters little",
        f"{eligible / total:.0%} eligible",
        shape_holds=eligible / total > 0.7,
    )
    return result
