"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-sweep --seed 20151028 \\
        --seconds 20 --trace 0

Runs from the root of a checkout and builds nothing: the program is the
pure-Python package under ``src/``.  The run repeats set-up plus one
timed pass of the workload until ``--seconds`` have gone by (at least
one pass), checks every output, and prints:

* ``env {...}`` -- nproc, Python and numpy versions, git commit, seed,
  scale and input sizes, so a number is never read without its machine;
* ``metric <name> <value> <unit>`` -- every end-to-end metric that
  applies to the workload, including ``failed_share``;
* ``digests {...}`` -- the sha256 of every output of the first pass, so
  runs of one seed can be checked equal;
* as the last line, one JSON object ``{"correct", "attempted",
  "failed", "metrics"}`` whose metrics are :data:`E2E_METRICS`.

``--trace 1`` alternates untraced and traced passes (at least one of
each), prints ``layer <name> <value> <unit>`` lines and puts the
per-layer metrics in the JSON instead; the spans go to ``--trace-out``
(default ``.perfbench/spans-<workload>-seed<seed>.jsonl``).  See
``perfbench/README.md``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402 -- the clock above starts before the imports
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKDIR = ROOT / ".perfbench"

#: the end-to-end metrics in the JSON of an untraced run, as (name, unit):
#: the ones every workload has, that are never 0 and that do not depend
#: on the seed (README.md says why ``peak_rss_mb``, ``failed_share`` and
#: the per-workload timings are printed but not listed here).
E2E_METRICS = (("setup_s", "s"), ("pass_s", "s"))

#: environment variables that would change what the program computes or
#: how it runs; the benchmark fixes them instead of inheriting them.
_PROGRAM_ENV = (
    "REPRO_TRACE",
    "REPRO_FAULT_PROFILE",
    "REPRO_EXEC_FAULT_PROFILE",
    "REPRO_DER_CHECK",
)


@dataclass
class Measured:
    """One set-up plus timed pass."""

    traced: bool
    setup_s: float
    result: object  # workloads.Pass
    layers: dict | None = None
    unmeasured: dict | None = None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("paper-sweep", "corpus-scale", "serve-fleet"),
    )
    parser.add_argument("--seed", type=int, default=20151028)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="override the workload's input scale (the tests use a tiny one)",
    )
    parser.add_argument("--trace-out", type=Path, default=None)
    return parser.parse_args(argv)


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return "unknown"
    return "unknown"


def measure(workload, *, seed, seconds, trace, scale, workdir, trace_out):
    """Closed loop of set-up + pass until ``seconds`` have elapsed."""
    from perfbench.tracer import NullTracer, Tracer

    expected = workload.expected(seed, scale)
    passes: list[Measured] = []
    begin = time.perf_counter()
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        tracer = Tracer() if traced else NullTracer()
        gc.collect()
        with tracer.installed():
            with tracer.span("bench.setup", operation=True):
                start = time.perf_counter()
                state = workload.setup(seed, scale, workdir)
                setup_s = time.perf_counter() - start
            try:
                result = workload.run_pass(state, tracer, expected)
            finally:
                workload.teardown(state)
        del state
        measured = Measured(traced, setup_s, result)
        if traced:
            measured.layers = tracer.layer_metrics(result.inputs)
            measured.unmeasured = dict(tracer.unmeasured)
            if trace_out is not None:
                tracer.write_jsonl(
                    trace_out,
                    {
                        "workload": workload.name,
                        "seed": seed,
                        "scale": scale,
                        "pass": len(passes),
                    },
                )
        passes.append(measured)
        elapsed = time.perf_counter() - begin
        if elapsed >= seconds and (not trace or len(passes) >= 2):
            return passes


def consistency_ops(passes):
    """Cross-pass checks: same outputs every pass, same trace counts."""
    from perfbench.tracer import LAYER_METRICS
    from perfbench.workloads import Op

    ops = []
    first = passes[0].result.digests
    for index, measured in enumerate(passes[1:], start=1):
        differing = sorted(
            key
            for key in set(first) | set(measured.result.digests)
            if first.get(key) != measured.result.digests.get(key)
        )
        ops.append(
            Op(
                f"determinism.pass{index}",
                f"outputs differ from pass 0: {', '.join(differing)}"
                if differing
                else None,
            )
        )
    traced = [m.layers for m in passes if m.traced]
    counted = [name for name, unit in LAYER_METRICS if unit == "count"]
    for index, layers in enumerate(traced[1:], start=1):
        differing = [n for n in counted if layers[n] != traced[0][n]]
        ops.append(
            Op(
                f"trace-counts.pass{index}",
                f"counts differ: {', '.join(differing)}" if differing else None,
            )
        )
    return ops


def summarise(workload, passes, import_s):
    """Medians over the passes, plus the operation accounting."""
    untraced = [m for m in passes if not m.traced]
    traced = [m for m in passes if m.traced]

    def median_pass(group):
        return statistics.median(
            sum(m.result.timings[phase] for phase in workload.phases)
            for m in group
        )

    def median_setup(group):
        return import_s + statistics.median(m.setup_s for m in group)

    timings = {
        name: statistics.median(m.result.timings[name] for m in untraced)
        for name in untraced[0].result.timings
    }
    e2e = {
        "setup_s": median_setup(untraced),
        "pass_s": median_pass(untraced),
    }
    ops = [op for m in passes for op in m.result.ops] + consistency_ops(passes)
    layers, unmeasured = None, {}
    if traced:
        layers = {
            name: statistics.median(m.layers[name] for m in traced)
            for name in traced[0].layers
        }
        layers["bench.trace_overhead_frac"] = (
            median_pass(traced) / e2e["pass_s"] - 1.0
        )
        layers["bench.setup_trace_overhead_frac"] = (
            median_setup(traced) / e2e["setup_s"] - 1.0
        )
        for m in traced:
            unmeasured.update(m.unmeasured)
    return e2e, timings, ops, layers, unmeasured


def main(argv=None) -> int:
    args = parse_args(argv)
    for name in _PROGRAM_ENV:
        os.environ.pop(name, None)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import numpy

        from perfbench import workloads
        from perfbench.tracer import LAYER_METRICS
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START

    workload = workloads.WORKLOADS[args.workload]
    scale = args.scale if args.scale is not None else workload.scale
    WORKDIR.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix="run-", dir=WORKDIR))
    # Everything the run writes, sqlite's own temp files included, stays
    # inside the checkout and is removed with the run directory.
    os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = str(rundir)
    tempfile.tempdir = str(rundir)
    trace_out = None
    if args.trace:
        trace_out = args.trace_out or (
            WORKDIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        )
        trace_out.unlink(missing_ok=True)
    try:
        passes = measure(
            workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=args.trace,
            scale=scale,
            workdir=rundir,
            trace_out=trace_out,
        )
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e, timings, ops, layers, unmeasured = summarise(workload, passes, import_s)

    env = {
        "workload": workload.name,
        "seed": args.seed,
        "scale": scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(ROOT),
        "inputs": passes[0].result.inputs,
        "passes": len(passes),
        "traced_passes": sum(m.traced for m in passes),
    }
    print("env " + json.dumps(env, sort_keys=True))
    failed = [op for op in ops if op.problem is not None]
    rows = [
        ("setup_s", e2e["setup_s"], "s"),
        ("pass_s", e2e["pass_s"], "s"),
        *((name, value, "s") for name, value in timings.items()),
        ("peak_rss_mb", peak_rss_mb, "MB"),
        ("failed_share", workloads.failed_share(ops), "ratio"),
    ]
    for name, value, unit in rows:
        print(f"metric {name} {value!r} {unit}")
    print("digests " + json.dumps(passes[0].result.digests, sort_keys=True))
    for op in failed:
        print(f"failed {op.name}: {op.problem}")
    units = dict(LAYER_METRICS)
    if layers is not None:
        for name, value in layers.items():
            print(f"layer {name} {value!r} {units[name]}")
        for metric, reason in sorted(unmeasured.items()):
            print(f"unmeasured: {metric}: {reason}")
        if trace_out is not None:
            print(f"spans {trace_out}")
        metrics = {
            name: {"value": value, "unit": units[name]}
            for name, value in layers.items()
        }
    else:
        metrics = {
            name: {"value": e2e[name], "unit": unit} for name, unit in E2E_METRICS
        }
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(ops),
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
