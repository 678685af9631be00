"""Figure 10: vulnerability windows around CRLSet membership."""

from __future__ import annotations

from repro.core.pipeline import MeasurementStudy
from repro.core.report import format_table, render_cdf
from repro.core.stats import Cdf
from repro.experiments.common import ExperimentResult, stage

EXPERIMENT_ID = "fig10"
TITLE = "Days of vulnerability: appearance lag and early removal (Figure 10)"


def mechanism_window_table(study: MeasurementStudy) -> str:
    """Mean/median vulnerability window per registered mechanism.

    The sweep comes from the study's mechanism suite (registry order,
    docs/MECHANISMS.md) -- never a hard-coded mechanism list -- so new
    mechanisms show up here without touching this module.
    """
    end = study.calibration.measurement_end
    eco = study.ecosystem
    revoked = eco.leaf_records(eco.leaves.revoked_mask(end))
    rows = []
    for mechanism in study.mechanism_suite:
        windows = sorted(
            mechanism.vulnerability_window_days(leaf) for leaf in revoked
        )
        mean = sum(windows) / len(windows) if windows else 0.0
        median = windows[len(windows) // 2] if windows else 0.0
        rows.append(
            (
                mechanism.name,
                f"{mechanism.update_model().staleness_window_days:.1f}",
                f"{mean:.1f}",
                f"{median:.1f}",
            )
        )
    return format_table(
        ["mechanism", "staleness (days)", "mean window", "median window"],
        rows,
        title=f"vulnerability window per mechanism ({len(revoked)} revoked certs)",
    )


def run(study: MeasurementStudy) -> ExperimentResult:
    with stage(study, "crlset_dynamics"):
        dynamics = study.crlset_dynamics()
    targets = study.targets

    appear = Cdf.from_values(float(d) for d in dynamics.days_to_appear)
    removal = Cdf.from_values(
        float(d) for d in dynamics.removal_before_expiry_days
    )
    rendered = (
        render_cdf(appear, title="days from revocation to CRLSet appearance",
                   value_format="{:.0f}")
        + "\n\n"
        + render_cdf(removal,
                     title="days between CRLSet removal and certificate expiry",
                     value_format="{:.0f}")
        + f"\n\nappearance cases n={len(dynamics.days_to_appear)}, "
        f"early-removal cases n={len(dynamics.removal_before_expiry_days)}, "
        f"never appeared n={dynamics.never_appeared_count}"
        + "\n\n"
        + mechanism_window_table(study)
    )

    result = ExperimentResult(
        EXPERIMENT_ID,
        TITLE,
        rendered,
        data={
            "days_to_appear": dynamics.days_to_appear,
            "removal_before_expiry": dynamics.removal_before_expiry_days,
        },
    )
    within1 = dynamics.appear_within(1)
    within2 = dynamics.appear_within(2)
    result.compare(
        "revocations appear within 1 day",
        f"{targets.days_to_appear_within_one_day:.0%}",
        f"{within1:.0%}", shape_holds=0.4 <= within1 <= 0.85,
    )
    result.compare(
        "revocations appear within 2 days",
        f"{targets.days_to_appear_within_two_days:.0%}",
        f"{within2:.0%}", shape_holds=within2 >= 0.8,
    )
    result.compare(
        "entries removed long before expiry",
        f"median {targets.median_removal_before_expiry_days:.0f} days",
        f"median {dynamics.median_removal_before_expiry:.0f} days",
        shape_holds=dynamics.median_removal_before_expiry > 60,
    )
    return result
