"""run_all error isolation and fault-seed determinism.

Acceptance criteria for the fault-injection PR: an injected crash in one
experiment must not abort the rest, and two runs under the same fault
seed and profile must produce byte-identical reports.
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import MeasurementStudy
from repro.experiments import availability
from repro.experiments.common import failure_result
from repro.experiments.runner import (
    ALL_EXPERIMENTS,
    _run_isolated,
    run_all,
    run_experiment,
)
from repro.obs import Observability
from repro.scan.calibration import Calibration


@pytest.fixture(scope="module")
def small_study():
    # A dedicated small study: run_all consumes the stapling scanner's
    # stateful RNG, so the session-scoped study must not be used here.
    return MeasurementStudy(scale=0.0005)


class TestErrorIsolation:
    def test_crash_is_captured_not_propagated(self, small_study, monkeypatch):
        # Inject a crash into one experiment; the sweep must complete and
        # report the failure as a structured record.
        def boom(_study):
            raise RuntimeError("injected crash")

        monkeypatch.setattr(ALL_EXPERIMENTS["fig3"], "run", boom)
        results = run_all(small_study)
        assert [r.experiment_id for r in results] == list(ALL_EXPERIMENTS)
        by_id = {r.experiment_id: r for r in results}
        failed = by_id["fig3"]
        assert not failed.ok
        assert failed.error["type"] == "RuntimeError"
        assert failed.error["message"] == "injected crash"
        assert "injected crash" in failed.error["traceback"]
        assert "EXPERIMENT FAILED" in failed.render()
        others = [r for r in results if r.experiment_id != "fig3"]
        assert all(r.ok for r in others)

    def test_failure_result_shape(self):
        record = failure_result("figX", "Title", ValueError("nope"))
        assert record.experiment_id == "figX"
        assert not record.ok
        assert record.error["type"] == "ValueError"
        assert record.data["error"] is record.error
        assert "partial_trace" not in record.error  # only when traced

    def test_partial_trace_attached_when_tracing(self, monkeypatch):
        # A traced run must ship the failing experiment's spans with the
        # failure record: the open `experiment` span and whatever stages
        # completed mark exactly where the crash happened.
        def boom(study):
            with study.obs.tracer.span("stage", stage="doomed"):
                raise RuntimeError("injected crash")

        monkeypatch.setattr(ALL_EXPERIMENTS["table2"], "run", boom)
        obs = Observability(enabled=True)
        study = MeasurementStudy(scale=0.0005, obs=obs)
        result = _run_isolated("table2", study)
        assert not result.ok
        partial = result.error["partial_trace"]
        names = [span["name"] for span in partial]
        assert names == ["experiment", "stage"]
        experiment_span, stage_span = partial
        assert experiment_span["attrs"]["outcome"] == "error"
        assert experiment_span["end"] is None  # open at capture time
        assert stage_span["attrs"]["error"] == "RuntimeError"
        # The tracer's own log still closes the span afterwards.
        closed = [
            span
            for span in obs.tracer.records()
            if span["name"] == "experiment"
        ]
        assert closed[0]["end"] is not None

    def test_no_partial_trace_when_tracing_disabled(self, monkeypatch):
        def boom(_study):
            raise RuntimeError("injected crash")

        monkeypatch.setattr(ALL_EXPERIMENTS["table2"], "run", boom)
        study = MeasurementStudy(scale=0.0005)
        result = _run_isolated("table2", study)
        assert not result.ok
        assert "partial_trace" not in result.error


class TestFaultDeterminism:
    def test_same_fault_seed_byte_identical_availability(self):
        def report(seed):
            study = MeasurementStudy(
                scale=0.0005, fault_profile="chaos", fault_seed=seed
            )
            return run_experiment("availability", study).render()

        assert report(20150701) == report(20150701)
        assert report(20150701) != report(99)

    def test_chaos_run_all_byte_identical(self):
        # Two consecutive full sweeps under the chaos profile with a
        # pinned fault seed must render byte-identically.
        calibration = Calibration(scale=0.0005)

        def full_report():
            study = MeasurementStudy(
                calibration=calibration,
                fault_profile="chaos",
                fault_seed=20150701,
            )
            return "\n\n".join(r.render() for r in run_all(study))

        assert full_report() == full_report()

    def test_injected_failures_are_accounted(self):
        # Every injected failure must show up in the counters: nothing is
        # silently free.
        study = MeasurementStudy(
            scale=0.0005, fault_profile="chaos", fault_seed=20150701
        )
        result = run_experiment("availability", study)
        faulted_cells = [
            leg
            for key, leg in result.data["cells"].items()
            if not key.startswith("0.0/")
        ]
        assert any(
            leg["stats"]["timeouts"] + leg["stats"]["http_errors"] > 0
            for leg in faulted_cells
        )
        for leg in faulted_cells:
            failures = (
                leg["stats"]["timeouts"]
                + leg["stats"]["dns_failures"]
                + leg["stats"]["http_errors"]
                + leg["stats"]["parse_errors"]
            )
            if failures:
                # Failed attempts cost latency beyond the clean baseline
                # (clean legs pay ~40 ms RTT per connection).
                assert leg["mean_latency_ms"] > 50

    def test_profile_leg_present_under_profile(self):
        study = MeasurementStudy(
            scale=0.0005, fault_profile="flaky", fault_seed=3
        )
        result = availability.run(study)
        assert result.data["profile"] is not None
        assert result.data["fault_profile"] == "flaky"

    def test_no_profile_leg_by_default(self):
        study = MeasurementStudy(scale=0.0005, fault_profile="none")
        result = availability.run(study)
        assert result.data["profile"] is None
