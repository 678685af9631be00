"""Run every experiment and render the paper-vs-measured report.

:func:`run_all` is the one sweep entry point, and every call runs on the
:class:`repro.exec.supervisor.Supervisor`: in-process when ``parallel``
is 1 or less, across watched worker processes otherwise (per-leg
deadline watchdog, retries, in-process degradation).  Each worker builds
its own :class:`MeasurementStudy` from the same calibration (the
substrate is deterministic for a fixed calibration, and the one stateful
RNG -- the stapling scanner's -- is seeded per study and consumed by a
single experiment), so the results are identical to the in-process path
regardless of worker count; a test enforces this.

Experiments are error-isolated: a crash in one figure is captured into a
structured failure record (:func:`repro.experiments.common.failure_result`)
and the remaining experiments still run.  :func:`run_experiment` runs
one experiment and propagates its exceptions (the fail-fast path for a
debugger).

Given a ``checkpoint_dir``, every completed leg is journaled, so an
interrupted run resumes (``resume=True``) instead of restarting -- and,
because each leg is deterministic for its calibration, produces the
identical report (docs/ROBUSTNESS.md).  The study's exec fault profile
applies to every run.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

from repro.core.pipeline import MeasurementStudy
from repro.experiments import (
    availability,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    mechanisms,
    section3,
    section42,
    serving,
    table1,
    table2,
)
from repro.experiments.common import ExperimentResult, failure_result
from repro.obs import NULL_OBS, Observability
from repro.scan.calibration import Calibration

__all__ = ["ALL_EXPERIMENTS", "run_all", "run_experiment"]

ALL_EXPERIMENTS = {
    module.EXPERIMENT_ID: module
    for module in (
        section3,
        section42,
        fig2,
        fig3,
        fig4,
        fig5,
        fig6,
        table1,
        table2,
        fig7,
        fig8,
        fig9,
        fig10,
        fig11,
        availability,
        mechanisms,
        serving,
    )
}


def run_experiment(
    experiment_id: str, study: MeasurementStudy | None = None
) -> ExperimentResult:
    """Run one experiment under an ``experiment`` span; errors propagate."""
    try:
        module = ALL_EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {sorted(ALL_EXPERIMENTS)}"
        ) from None
    study = study or MeasurementStudy()
    with study.obs.tracer.span("experiment", experiment=experiment_id) as span:
        result = module.run(study)
        span.set("outcome", "ok")
        return result


def _run_isolated(experiment_id: str, study: MeasurementStudy) -> ExperimentResult:
    module = ALL_EXPERIMENTS[experiment_id]
    obs = study.obs
    mark = obs.tracer.mark() if obs.enabled else 0
    with obs.tracer.span("experiment", experiment=experiment_id) as span:
        try:
            result = module.run(study)
        except Exception as exc:
            span.set("outcome", "error")
            # The experiment span is still open here, so the partial
            # trace shows exactly which spans the crash interrupted.
            partial = obs.tracer.records_since(mark) if obs.enabled else None
            return failure_result(
                experiment_id, module.TITLE, exc, partial_trace=partial
            )
        span.set("outcome", "ok")
        return result


# Per-worker study, built once by the worker initializer.  Each worker pays
# for the substrate once and then serves any number of experiments.
_WORKER_STUDY: MeasurementStudy | None = None


def _init_worker(
    calibration: Calibration,
    cache_dir: str | None,
    fault_profile: str,
    fault_seed: int | None,
    obs_enabled: bool,
) -> None:  # pragma: no cover - runs in worker processes
    global _WORKER_STUDY
    _WORKER_STUDY = MeasurementStudy(
        calibration=calibration,
        cache_dir=cache_dir,
        fault_profile=fault_profile,
        fault_seed=fault_seed,
        obs=Observability(enabled=True) if obs_enabled else NULL_OBS,
    )


def _run_in_worker(
    experiment_id: str,
):  # pragma: no cover - runs in worker processes
    """Run one experiment; ship its trace segment back with the result.

    The worker's tracer and metrics registry accumulate across every
    experiment it serves, so each call exports only the records since its
    own mark (the segment) plus the registry's *cumulative* state tagged
    with its mutation count -- the parent keeps the highest-count export
    per worker, which is that worker's complete contribution.
    """
    assert _WORKER_STUDY is not None, "worker initializer did not run"
    obs = _WORKER_STUDY.obs
    if not obs.enabled:
        return _run_isolated(experiment_id, _WORKER_STUDY), None, None, 0, 0
    mark = obs.tracer.mark()
    result = _run_isolated(experiment_id, _WORKER_STUDY)
    segment = obs.tracer.export_segment(mark)
    return result, segment, obs.metrics.export(), obs.metrics.op_count, os.getpid()


def _merge_worker_traces(
    obs: Observability, outputs: list[tuple]
) -> None:
    """Fold worker trace segments and metrics into the parent study's obs.

    Worker pids are normalised to ``w0``, ``w1``, ... in first-seen
    declaration order, and segments are imported in declaration order, so
    the merged trace depends on the scheduler only through which pid ran
    which experiment -- not through timing (docs/OBSERVABILITY.md).
    """
    workers: dict[int, str] = {}
    best_metrics: dict[int, tuple[int, list[dict]]] = {}
    for _, segment, metrics_export, op_count, token in outputs:
        label = workers.setdefault(token, f"w{len(workers)}")
        if segment:
            obs.tracer.import_segment(segment, worker=label)
        if metrics_export:
            seen = best_metrics.get(token)
            if seen is None or op_count > seen[0]:
                best_metrics[token] = (op_count, metrics_export)
    for token in sorted(best_metrics, key=lambda pid: workers[pid]):
        obs.metrics.merge(best_metrics[token][1])


def _prewarm_store(study: MeasurementStudy) -> str | None:
    """Warm the corpus store before spawning workers (or None without a
    cache_dir).

    The parent pays for generation once and each worker then loads the
    corpus out-of-core instead of rebuilding it.
    When the store is already warm the parent deliberately does NOT
    materialise the ecosystem: workers read the file themselves, and a
    small parent heap keeps forking the workers cheap.
    """
    if study.cache_dir is None:
        return None
    from repro.scan.datastore import ArtifactCache

    cache = ArtifactCache(study.cache_dir, obs=study.obs)
    if not cache.has_ecosystem(study.calibration):
        study.ecosystem
    return str(study.cache_dir)


def _run_key(study: MeasurementStudy) -> str:
    """Checkpoint identity for a run's results.

    Covers everything the *results* depend on: the full calibration and
    the network-fault settings.  Exec-fault settings are deliberately
    excluded -- they shape how the run executes, never what it computes
    -- so a run interrupted under an exec fault profile can resume under
    a different one (or none).
    """
    from repro.scan.datastore import calibration_digest

    return (
        f"{calibration_digest(study.calibration)}"
        f"/net={study.fault_profile}/{study.fault_seed}"
    )


def run_all(
    study: MeasurementStudy | None = None,
    parallel: int | None = None,
    *,
    checkpoint_dir: str | Path | None = None,
    resume: bool = False,
) -> list[ExperimentResult]:
    """Run every experiment, in declaration order, on the supervisor.

    ``parallel=N`` (N >= 2) runs the legs across N watched worker
    processes; when the study has a ``cache_dir`` the workers share its
    artifact cache, so the ecosystem is generated at most once.  With a
    ``checkpoint_dir`` every completed leg is journaled (atomic JSONL
    keyed on the calibration + network-fault digest) and ``resume=True``
    replays validated checkpoints, running only the missing legs;
    without one nothing is written, and ``resume=True`` raises
    ``ValueError``.  The study's ``exec_fault_profile`` and
    ``exec_fault_seed`` select the injected process faults; an injected
    ABORT raises :class:`repro.exec.supervisor.RunInterrupted`.
    """
    from repro.exec.checkpoint import (
        CheckpointJournal,
        pickle_payload,
        unpickle_payload,
    )
    from repro.exec.faults import plan_from_exec_profile
    from repro.exec.supervisor import (
        RunInterrupted,
        Supervisor,
        SupervisorConfig,
    )

    if resume and checkpoint_dir is None:
        raise ValueError("resume=True needs the checkpoint_dir to resume from")
    study = study or MeasurementStudy()
    order = list(ALL_EXPERIMENTS)
    journal = None
    if checkpoint_dir is not None:
        run_key = _run_key(study)
        journal_name = hashlib.sha256(run_key.encode()).hexdigest()[:12]
        journal = CheckpointJournal(
            Path(checkpoint_dir) / f"run-{journal_name}.jsonl", run_key
        )
        if not resume:
            journal.start_fresh()

    obs = study.obs
    checkpointed: dict[str, ExperimentResult] = {}
    remaining: list[tuple[str, str]] = []
    for eid in order:
        payload = journal.get(eid) if resume else None
        result = None
        if payload is not None:
            try:
                result = unpickle_payload(payload)
            except Exception:
                result = None  # torn/foreign payload: a miss
            if not isinstance(result, ExperimentResult) or (
                result.experiment_id != eid
            ):
                result = None
        if result is not None:
            checkpointed[eid] = result
            if obs.enabled:
                obs.metrics.counter("exec.checkpoint.hits").inc()
        else:
            remaining.append((eid, eid))
            if obs.enabled and resume:
                obs.metrics.counter("exec.checkpoint.misses").inc()

    faults = plan_from_exec_profile(
        study.exec_fault_profile, study.exec_fault_seed
    )

    def on_complete(eid: str, output: tuple) -> None:
        if journal is not None:
            journal.record(eid, pickle_payload(output[0]))

    def local_fn(eid: str) -> tuple:
        # In-process and degradation path: run in the parent against the
        # parent study (deterministic, so identical to a worker's answer).
        return _run_isolated(eid, study), None, None, 0, 0

    workers = (
        1
        if parallel is None or parallel <= 1
        else min(parallel, len(order), os.cpu_count() or 1)
    )
    cache_dir = _prewarm_store(study) if workers > 1 else None
    supervisor = Supervisor(
        SupervisorConfig(workers=workers),
        obs=obs,
        faults=faults,
    )
    try:
        outcome = supervisor.run(
            remaining,
            _run_in_worker,
            initializer=_init_worker,
            initargs=(
                study.calibration,
                cache_dir,
                study.fault_profile,
                study.fault_seed,
                obs.enabled,
            ),
            local_fn=local_fn,
            on_complete=on_complete,
            completed_before=len(checkpointed),
            allow_abort=not resume,
        )
    except RunInterrupted:
        if journal is not None:
            journal.mark_aborted()
        raise

    if obs.enabled:
        live = [outcome.results[eid] for eid in order if eid in outcome.results]
        _merge_worker_traces(obs, live)
    return [
        checkpointed[eid] if eid in checkpointed else outcome.results[eid][0]
        for eid in order
    ]


def main() -> None:  # pragma: no cover - CLI convenience
    study = MeasurementStudy()
    for result in run_all(study):
        print(result.render())
        print()


if __name__ == "__main__":  # pragma: no cover
    main()
