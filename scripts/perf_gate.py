#!/usr/bin/env python
"""Speed gate: this checkout against a base checkout, through perfbench.

Usage (from the root of this checkout)::

    python scripts/perf_gate.py BASE

``BASE`` is a checkout of the commit to compare against; CI makes it a
worktree of the pull request's base.  The gate fails (exit 1) when:

* a ``*.calls`` count of a traced ``paper-sweep`` run at seed 20151028
  is higher than in the last record of ``BENCH_perfbench.json``, or the
  run and the record do not list the same counts.  Traced counts repeat
  exactly, so this check has no noise;
* for each of :data:`TIMED_WORKLOADS`, over :data:`PAIRS` alternating
  untraced runs of this checkout and of ``BASE`` at the listed scale,
  this checkout's median ``pass_s`` or ``setup_s`` is worse than the
  base's by more than that metric's bound in ``BENCHMARK.json``.  Both
  come from the same runs; ``setup_s`` holds the corpus generation of
  ``paper-sweep`` and ``serve-fleet``, which their passes never redo.

The timing check compares two commits on one machine instead of reading
a committed wall time: a committed time goes stale as machines and the
code around it change, and the benchmark's own acceptance rule is paired
too.  The script times nothing itself; it runs ``perfbench/run.py`` of
each checkout and parses its ``metric`` and ``layer`` lines.  Standard
library only.  Exit 2: usage error, or a perfbench run failed.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: the workload whose traced counts are checked against the record.
COUNTED_WORKLOAD = "paper-sweep"
#: the workloads whose timings are paired against the base, each with
#: the ``--scale`` to run it at (None: the workload's own): the sweep,
#: the serving fleet, which the sweep runs only at a small scale, and the
#: corpus store round trip at a fifth of its benchmark scale, which no
#: other CI job times.
TIMED_WORKLOADS = (
    ("paper-sweep", None),
    ("serve-fleet", None),
    ("corpus-scale", 0.01),
)
SEED = 20151028
#: the end-to-end timings paired against the base, each with its own
#: bound from the base's ``BENCHMARK.json``.
TIMED_METRICS = ("pass_s", "setup_s")
#: alternating pairs for the timing check.  Single passes on a 2-vCPU
#: box range over about ±30 %; a median over five pairs once read +15 %
#: for identical code.
PAIRS = 7


class PerfbenchFailed(Exception):
    """perfbench exited non-zero or printed no ``pass_s`` or
    ``setup_s``."""


def perfbench(
    checkout: Path, workload: str, trace: int, scale: float | None = None
) -> dict[str, float]:
    """One run of ``workload`` by ``checkout``'s perfbench (one timed
    pass, plus a traced one with ``trace=1``), at ``scale`` if given:
    its ``metric`` and ``layer`` values by name."""
    completed = subprocess.run(
        [
            sys.executable,
            str(checkout / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", str(SEED),
            "--seconds", "0",
            "--trace", str(trace),
            *([] if scale is None else ["--scale", repr(scale)]),
        ],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    values = {}
    for line in completed.stdout.splitlines():
        kind, _, rest = line.partition(" ")
        if kind in ("metric", "layer"):
            name, value, _unit = rest.split()
            values[name] = float(value)
    if completed.returncode != 0 or not set(TIMED_METRICS) <= set(values):
        raise PerfbenchFailed(
            f"perfbench in {checkout} exited {completed.returncode}:\n"
            f"{completed.stdout[-2000:]}{completed.stderr[-2000:]}"
        )
    return values


def count_problems() -> list[str]:
    """This checkout's traced counts against the last committed record."""
    record = json.loads((ROOT / "BENCH_perfbench.json").read_text())["records"][-1]
    recorded = record["workloads"][COUNTED_WORKLOAD]["counts"]
    traced = perfbench(ROOT, COUNTED_WORKLOAD, trace=1)
    counts = {name: value for name, value in traced.items() if name.endswith(".calls")}
    problems = []
    for name in sorted(set(recorded) | set(counts)):
        if name not in counts:
            problems.append(f"{name}: missing from the traced run")
        elif name not in recorded:
            problems.append(f"{name}: not in the last BENCH_perfbench.json record")
        elif counts[name] > recorded[name]:
            problems.append(
                f"{name}: {counts[name]:.0f} > {recorded[name]} recorded at "
                f"{record['commit'][:12]}"
            )
        else:
            print(f"count {name} {counts[name]:.0f} (recorded {recorded[name]})")
    return problems


def timing_problems(base: Path, workload: str, scale: float | None) -> list[str]:
    """Median ``pass_s`` and ``setup_s`` of this checkout against
    ``base``, paired: one set of runs serves both."""
    # The bounds come from the base, so a change cannot loosen its own gate.
    benchmark = json.loads((base / "BENCHMARK.json").read_text())
    bounds = {
        metric["name"]: metric["bound"]
        for metric in benchmark["end_to_end"]
        if metric["name"] in TIMED_METRICS
    }
    head_runs: list[dict[str, float]] = []
    base_runs: list[dict[str, float]] = []
    for pair in range(PAIRS):
        sides = [(ROOT, head_runs), (base, base_runs)]
        if pair % 2:
            sides.reverse()
        for checkout, runs in sides:
            runs.append(perfbench(checkout, workload, 0, scale))
        print(
            f"{workload} pair {pair + 1}: "
            + ", ".join(
                f"{name} head {head_runs[-1][name]:.3f} s, "
                f"base {base_runs[-1][name]:.3f} s"
                for name in TIMED_METRICS
            )
        )
    problems = []
    for name in TIMED_METRICS:
        head_median = statistics.median(run[name] for run in head_runs)
        base_median = statistics.median(run[name] for run in base_runs)
        change = head_median / base_median - 1.0
        bound = bounds[name]
        print(
            f"{workload} {name} median: head {head_median:.3f} s, base "
            f"{base_median:.3f} s ({change:+.1%}; bound +{bound:.0%})"
        )
        if change > bound:
            problems.append(
                f"{workload} {name} median {change:+.1%} against the base, "
                f"bound +{bound:.0%}"
            )
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0].startswith("-"):
        print("usage: python scripts/perf_gate.py BASE", file=sys.stderr)
        return 2
    base = Path(argv[0]).resolve()
    if not (base / "perfbench" / "run.py").is_file():
        print(f"perf_gate: {base} has no perfbench/run.py", file=sys.stderr)
        return 2
    try:
        problems = count_problems()
        for workload, scale in TIMED_WORKLOADS:
            problems += timing_problems(base, workload, scale)
    except PerfbenchFailed as exc:
        print(f"perf_gate: {exc}", file=sys.stderr)
        return 2
    for problem in problems:
        print(f"FAIL: {problem}")
    if not problems:
        print("OK: no count rose and every pass_s and setup_s is within its bound")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
