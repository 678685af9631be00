"""Tests of the benchmark itself: metrics, trace structure, output checks.

The workloads run at a tiny input scale; ``paper-sweep`` still costs
about 15 s a pass because table2 does not depend on the scale.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro import api

from perfbench import run as bench
from perfbench import tracer as tracing
from perfbench import workloads

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 0.0005
SEED = 3


def run_cli(workload: str, *args: str, cwd: Path = ROOT):
    return subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", str(SEED),
            "--seconds", "0",
            "--scale", str(TINY),
            *args,
        ],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=900,
    )


def result_of(completed) -> tuple[list[str], dict]:
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.splitlines()
    return lines, json.loads(lines[-1])


def metric_lines(lines: list[str]) -> dict[str, str]:
    """``metric <name> <value> <unit>`` lines as name -> unit."""
    return {
        line.split()[1]: line.split()[3]
        for line in lines
        if line.startswith("metric ")
    }


def count_metrics(layers: dict) -> dict:
    return {
        name: layers[name]
        for name, unit in tracing.LAYER_METRICS
        if unit in ("count", "days", "MB")
    }


@pytest.fixture(scope="module")
def traced_sweep(tmp_path_factory):
    spans = tmp_path_factory.mktemp("spans") / "spans.jsonl"
    lines, result = result_of(
        run_cli("paper-sweep", "--trace", "1", "--trace-out", str(spans))
    )
    return lines, result, spans


class TestBenchmarkFile:
    def test_lists_exactly_the_metrics_the_code_reports(self):
        assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == [
            *bench.E2E_METRICS
        ]
        assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == [
            *tracing.LAYER_METRICS
        ]
        assert [w["name"] for w in BENCHMARK["workloads"]] == list(
            workloads.WORKLOADS
        )

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
        assert bounds["setup_s"] == max(bounds.values())

    def test_without_the_program_it_fails_and_prints_no_result(self, tmp_path):
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        shutil.copytree(
            ROOT / "perfbench",
            tmp_path / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__", "tests"),
        )
        completed = run_cli("serve-fleet", cwd=tmp_path)
        assert completed.returncode != 0
        assert completed.stdout == ""


class TestEndToEnd:
    @pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
    def test_every_end_to_end_metric_with_its_unit(self, workload):
        lines, result = result_of(run_cli(workload))
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {
            name: metric["unit"] for name, metric in result["metrics"].items()
        } == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        assert all(m["value"] > 0 for m in result["metrics"].values())
        printed = metric_lines(lines)
        expected = {
            "setup_s": "s",
            "pass_s": "s",
            "peak_rss_mb": "MB",
            "failed_share": "ratio",
            **{phase: "s" for phase in workloads.WORKLOADS[workload].phases},
        }
        assert {name: printed.get(name) for name in expected} == expected
        env = json.loads(next(l for l in lines if l.startswith("env "))[4:])
        for key in ("nproc", "python", "numpy", "commit", "seed", "inputs"):
            assert key in env


class TestTracedRun:
    def test_reports_every_per_layer_metric(self, traced_sweep):
        lines, result, _ = traced_sweep
        assert result["correct"] is True
        assert {
            name: metric["unit"] for name, metric in result["metrics"].items()
        } == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        assert not [line for line in lines if line.startswith("unmeasured:")]

    def test_counts_the_table2_pki_rebuilds(self, traced_sweep):
        _, result, _ = traced_sweep
        metrics = result["metrics"]
        assert metrics["browsers.build_pki.calls"]["value"] == 7320
        assert metrics["browsers.validate.calls"]["value"] == 7320
        assert metrics["browsers.pki_reuse_ratio"]["value"] == pytest.approx(
            244 / 7320
        )

    def test_span_tree_is_well_formed(self, traced_sweep):
        _, _, spans = traced_sweep
        passes: list[dict[int, dict]] = []
        for line in spans.read_text().splitlines():
            record = json.loads(line)
            if "header" in record:
                passes.append({})
            else:
                passes[-1][record["id"]] = record
        assert passes and all(passes)
        for records in passes:
            covered = {span_id: 0 for span_id in records}
            for span in records.values():
                assert span["end_ns"] >= span["start_ns"]
                assert span["self_ns"] >= 0
                # only the span grouping the sweep's 17 operations has none
                assert (span["op"] is None) == (span["name"] == "bench.sweep")
                if span["parent"] is None:
                    continue
                parent = records[span["parent"]]
                assert parent["start_ns"] <= span["start_ns"]
                assert span["end_ns"] <= parent["end_ns"]
                if parent["op"] is not None:
                    assert span["op"] == parent["op"]
                covered[parent["id"]] += span["end_ns"] - span["start_ns"]
            for span_id, span in records.items():
                duration = span["end_ns"] - span["start_ns"]
                assert span["self_ns"] == duration - covered[span_id]

    def test_counts_repeat_exactly_across_runs(self, traced_sweep, tmp_path):
        _, result, _ = traced_sweep
        first = {name: m["value"] for name, m in result["metrics"].items()}
        workload = workloads.WORKLOADS["paper-sweep"]
        passes = bench.measure(
            workload,
            seed=SEED,
            seconds=0,
            trace=1,
            scale=TINY,
            workdir=tmp_path,
            trace_out=None,
        )
        second = next(m.layers for m in passes if m.traced)
        assert count_metrics(second) == count_metrics(first)

    def test_tracer_restores_every_boundary(self):
        harness = api.BrowserTestHarness
        before = vars(harness)["build_pki"]
        with tracing.Tracer().installed():
            assert vars(harness)["build_pki"] is not before
        assert vars(harness)["build_pki"] is before


class TestOutputChecks:
    def test_wrong_expected_digest_raises_failed_share(self):
        study = api.study.new_study(
            scale=workloads.PINNED_SCALE,
            seed=workloads.PINNED_SEED,
            fault_profile="none",
        )
        result = api.study.run_one("section42", study)
        golden = workloads.load_golden()
        ops, _ = workloads.check_experiments([result], golden)
        assert workloads.failed_share(ops) == 0
        wrong = dict(golden)
        wrong["section42"] = "0" * 64
        ops, _ = workloads.check_experiments([result], wrong)
        assert workloads.failed_share(ops) > 0

    def test_broken_fleet_accounting_is_a_failure(self):
        study = api.study.new_study(scale=TINY, seed=SEED, fault_profile="none")
        config = api.serve.FleetConfig(sessions=20_000, ticks=4, seed=SEED)
        report = api.serve.run_fleet(study, "ocsp", config=config)
        assert workloads.fleet_problem(report) is None
        report.origin_signings += 1
        assert workloads.fleet_problem(report) == "cache misses != origin signings"
