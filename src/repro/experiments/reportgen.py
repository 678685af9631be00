"""Generate EXPERIMENTS.md: paper-vs-measured for every table and figure.

:func:`generate` is the programmatic entry point (``repro.api.study.render_report``
and the ``python -m repro report`` subcommand call it); the module CLI
is kept for direct use:

    python -m repro.experiments.reportgen [scale] > EXPERIMENTS.md
"""

from __future__ import annotations

import sys

from repro.core.pipeline import MeasurementStudy
from repro.experiments.runner import run_all
from repro.scan.calibration import Calibration

__all__ = ["generate", "main"]

_HEADER = """\
# EXPERIMENTS — paper vs. measured

Generated by `python -m repro.experiments.reportgen {scale}`.

Every table and figure from the paper's evaluation, regenerated over the
synthetic ecosystem (DESIGN.md documents the data substitutions).  Each
experiment declares "shape" comparisons: qualitative/quantitative claims
from the paper that the reproduction must preserve (who wins, direction
of every trend, rough factors).  Absolute counts are scaled by the
calibration factor; fractions are scale-invariant.

Corpus at scale={scale}: {leaves:,} leaf certificates (paper: 5,067,476),
{intermediates} intermediates (paper: 1,946), {crls} CRLs (paper: 2,800),
{entries:,} total CRL entries (paper: 11,461,935).

Reading the tables: **paper** is the value printed in the paper at full
scale; **measured** is this run; **shape holds** is the per-claim
acceptance band (also asserted in `tests/experiments/`).

"""


def generate(
    scale: float = 0.002,
    *,
    seed: int = 20151028,
    fault_profile: str | None = None,
    fault_seed: int | None = None,
) -> str:
    """The full EXPERIMENTS.md body as a string.

    Runs every experiment at the given calibration and renders the
    header plus one section per experiment.  ``fault_profile`` /
    ``fault_seed`` degrade the simulated network exactly as the ``run``
    subcommand's flags do (docs/ROBUSTNESS.md), so a degraded report can
    be diffed against a healthy one.
    """
    study = MeasurementStudy(
        scale=scale,
        seed=seed,
        fault_profile=fault_profile,
        fault_seed=fault_seed,
    )
    eco = study.ecosystem
    header = _HEADER.format(
        scale=scale,
        leaves=len(eco.leaves),
        intermediates=len(eco.intermediates),
        crls=len(eco.crls),
        entries=eco.total_crl_entries(study.calibration.measurement_end),
    )
    lines: list[str] = []
    for result in run_all(study):
        lines.append(f"## {result.experiment_id}: {result.title}")
        lines.append("")
        lines.append("```text")
        lines.append(result.rendered)
        lines.append("```")
        if result.comparisons:
            lines.append("")
            lines.append("| metric | paper | measured | shape holds |")
            lines.append("|---|---|---|---|")
            for c in result.comparisons:
                mark = "yes" if c.shape_holds else "**NO**"
                lines.append(f"| {c.metric} | {c.paper} | {c.measured} | {mark} |")
        lines.append("")
    return header + "".join(line + "\n" for line in lines)


def main(argv: list[str] | None = None) -> int:
    """Print the report; exit 2 with one line on stderr for a scale that
    :class:`Calibration` rejects, as ``python -m repro report`` does."""
    if argv is None:
        argv = sys.argv[1:]
    scale = 0.002
    if argv:
        try:
            scale = Calibration(scale=float(argv[0])).scale
        except ValueError as error:
            print(f"reportgen: error: scale {argv[0]!r}: {error}", file=sys.stderr)
            return 2
    sys.stdout.write(generate(scale))
    return 0


if __name__ == "__main__":
    sys.exit(main())
