"""Worker supervision: deadline watchdog, retries, respawns, degradation.

:class:`Supervisor` runs a list of ``(task_id, payload)`` tasks across a
small fleet of worker processes and keeps the *parent* alive through
every worker failure mode the fault plans can inject (and the real ones
they model):

- **worker death** -- a worker that dies mid-task (``os._exit``, OOM
  kill, segfault) is detected by liveness polling; its task is retried
  and the worker respawned, up to a bounded ``respawn_budget``.
- **hang** -- a heartbeat-free deadline watchdog: each assignment gets
  ``task_timeout`` seconds of wall clock; past the deadline the worker
  is terminated and the task retried.  No cooperation from the worker
  is required (a truly wedged process can't send heartbeats anyway).
- **retry pacing** -- re-attempts are delayed by seeded exponential
  backoff (deterministic per ``(seed, task, attempt)``, jitter included,
  so two runs retry on the same schedule).
- **degradation** -- a task out of attempts, or a run out of workers
  and respawn budget, falls back to in-process execution in the parent
  (``local_fn``).  Slower, but the run *completes*; the experiments are
  deterministic, so a degraded run's results are identical.

Every recovery action is recorded as a structured :class:`FailureRecord`
instead of crashing the parent, and surfaced through
:class:`SupervisedOutcome` plus ``repro.obs`` counters/events
(``exec.retries``, ``exec.respawns``, ``exec.worker_deaths``,
``exec.timeouts``, ``exec.degraded``) so ``trace --diff`` localises
recovery cost.

This module is the one place in the codebase allowed to read the host
monotonic clock (pyproject per-path-ignores, RPR001): supervision
deadlines are about *real* elapsed time, unlike everything the
simulation measures, which flows through ``SimClock``.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import random
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.exec.faults import ExecFaultPlan
from repro.obs import NULL_OBS, Observability

__all__ = [
    "FailureRecord",
    "RunInterrupted",
    "SupervisedOutcome",
    "Supervisor",
    "SupervisorConfig",
]


@dataclass(frozen=True)
class SupervisorConfig:
    """Tuning knobs for one supervised run."""

    workers: int = 2
    #: per-task wall-clock deadline in seconds (None disables the watchdog).
    task_timeout: float | None = 600.0
    #: total tries per task (first attempt included) before degradation.
    max_task_attempts: int = 3
    #: total worker respawns across the run before the fleet shrinks.
    respawn_budget: int = 16
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.5
    #: seeds the backoff jitter (fault plans carry their own seed).
    seed: int = 0
    #: parent poll granularity for results/watchdog, in seconds.
    poll_interval: float = 0.05


@dataclass(frozen=True)
class FailureRecord:
    """One recovery action, structured (never a crashed parent).

    ``kind`` is one of ``worker-death``, ``timeout``, ``error`` (the
    task raised in the worker), or ``degraded`` (ran in-process after
    workers/attempts were exhausted).
    """

    task_id: str
    attempt: int
    kind: str
    detail: str
    worker: str

    def as_dict(self) -> dict:
        """Fixed-key export shape for reports and JSON dumps.

        Always serialise through this (never ``vars``/``asdict``) so
        key order stays pinned independent of field declaration order;
        RPR014 enforces the convention.
        """
        return {
            "task_id": self.task_id,
            "attempt": self.attempt,
            "kind": self.kind,
            "detail": self.detail,
            "worker": self.worker,
        }


@dataclass
class SupervisedOutcome:
    """What a supervised run produced and what it took to get there."""

    results: dict[str, object] = field(default_factory=dict)
    failures: list[FailureRecord] = field(default_factory=list)
    retries: int = 0
    respawns: int = 0
    degraded: list[str] = field(default_factory=list)


class RunInterrupted(RuntimeError):
    """The run stopped partway (injected ABORT fault).

    Completed tasks are already checkpointed; the CLI maps this to exit
    code 3 and points at ``--resume``.
    """

    def __init__(self, completed: int, remaining: list[str]) -> None:
        self.completed = completed
        self.remaining = list(remaining)
        super().__init__(
            f"run interrupted after {completed} completed task(s); "
            f"{len(self.remaining)} remaining -- resume with --resume"
        )


_KILL_EXIT = 23


def _worker_main(
    label: str,
    task_q,
    result_q,
    worker_fn,
    initializer,
    initargs,
    faults: ExecFaultPlan | None,
):  # pragma: no cover - runs in worker processes
    if initializer is not None:
        initializer(*initargs)
    while True:
        item = task_q.get()
        if item is None:
            return
        task_id, payload, attempt = item
        if faults is not None:
            kind = faults.decide_task(task_id, attempt)
            if kind is not None and kind.value == "kill":
                # Flush this worker's earlier results first: an exit that
                # strands the feeder thread while it holds the shared
                # result queue's write lock blocks every other worker's
                # results until the task deadline.
                result_q.close()
                result_q.join_thread()
                os._exit(_KILL_EXIT)
            if kind is not None and kind.value == "hang":
                # A wedged worker: sleep past any sane deadline and let
                # the parent's watchdog terminate us.
                time.sleep(faults.hang_seconds)
        try:
            result = worker_fn(payload)
        except BaseException as exc:  # ship the failure, keep serving
            result_q.put(
                (label, task_id, attempt, False, f"{type(exc).__name__}: {exc}")
            )
        else:
            result_q.put((label, task_id, attempt, True, result))


def _mp_context():
    # fork keeps worker_fn/initializer closures and a warm parent heap
    # cheap to inherit; fall back to the platform default elsewhere (all
    # functions we pass are module-level, so spawn works too).
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


class _Worker:
    """One supervised worker process and its dedicated task queue."""

    def __init__(self, ctx, label, result_q, worker_fn, initializer, initargs, faults):
        self.label = label
        self.task_q = ctx.Queue()
        #: (task_id, payload, attempt, deadline | None) while busy.
        self.current: tuple | None = None
        self.process = ctx.Process(
            target=_worker_main,
            args=(
                label,
                self.task_q,
                result_q,
                worker_fn,
                initializer,
                initargs,
                faults,
            ),
            daemon=True,
        )
        self.process.start()

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def assign(self, task_id, payload, attempt, timeout: float | None) -> None:
        deadline = None if timeout is None else time.monotonic() + timeout
        self.current = (task_id, payload, attempt, deadline)
        self.task_q.put((task_id, payload, attempt))

    def stop(self) -> None:
        try:
            self.task_q.put(None)
        except (ValueError, OSError):  # pragma: no cover - queue closed
            pass  # worker is being terminated below anyway
        self.process.join(timeout=1.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=1.0)
        self.task_q.close()


class Supervisor:
    """Run tasks across supervised workers (see module docstring).

    ``faults`` injects deterministic process faults
    (:mod:`repro.exec.faults`); ``obs`` receives counters and events.
    """

    def __init__(
        self,
        config: SupervisorConfig | None = None,
        *,
        obs: Observability | None = None,
        faults: ExecFaultPlan | None = None,
    ) -> None:
        self.config = config or SupervisorConfig()
        self.obs = obs if obs is not None else NULL_OBS
        self.faults = faults

    # -- deterministic backoff --------------------------------------------

    def _backoff(self, task_id: str, attempt: int) -> float:
        cfg = self.config
        jitter = random.Random(
            f"{cfg.seed}/backoff/{task_id}/{attempt}"
        ).random()
        return (
            cfg.backoff_base
            * (cfg.backoff_factor**attempt)
            * (1.0 + cfg.backoff_jitter * jitter)
        )

    # -- bookkeeping -------------------------------------------------------

    def _count(self, name: str) -> None:
        if self.obs.enabled:
            self.obs.metrics.counter(name).inc()

    def _event(self, name: str, **attrs) -> None:
        if self.obs.enabled:
            self.obs.tracer.event(name, **attrs)

    def _failure(
        self, outcome: SupervisedOutcome, task_id, attempt, kind, detail, worker
    ) -> None:
        outcome.failures.append(
            FailureRecord(
                task_id=task_id,
                attempt=attempt,
                kind=kind,
                detail=detail,
                worker=worker,
            )
        )
        self._event(f"exec.{kind.replace('-', '_')}", task=task_id, attempt=attempt)

    # -- public entry ------------------------------------------------------

    def run(
        self,
        tasks: list[tuple[str, object]],
        worker_fn: Callable,
        *,
        initializer: Callable | None = None,
        initargs: tuple = (),
        local_fn: Callable | None = None,
        on_complete: Callable[[str, object], None] | None = None,
        completed_before: int = 0,
        allow_abort: bool = True,
    ) -> SupervisedOutcome:
        """Run every task; returns a :class:`SupervisedOutcome`.

        ``worker_fn(payload)`` runs in workers; ``local_fn(payload)``
        (default ``worker_fn``) is the in-process degradation path.
        ``on_complete(task_id, result)`` fires in the parent after each
        completion -- the checkpoint hook.  ``completed_before`` counts
        journal hits toward the ABORT fault's threshold so the fault
        models "the machine died N tasks into the run" regardless of
        how the run was split; ``allow_abort=False`` disables ABORT
        (resumed runs crash at most once per journal).
        """
        local_fn = local_fn or worker_fn
        abort_after = None
        if allow_abort and self.faults is not None:
            abort_after = self.faults.abort_after
        with self.obs.tracer.span(
            "exec.supervise",
            tasks=len(tasks),
            workers=min(self.config.workers, max(len(tasks), 1)),
        ):
            if self.config.workers <= 1 or len(tasks) <= 1:
                return self._run_serial(
                    tasks, local_fn, on_complete, completed_before, abort_after
                )
            return self._run_parallel(
                tasks,
                worker_fn,
                initializer,
                initargs,
                local_fn,
                on_complete,
                completed_before,
                abort_after,
            )

    # -- serial path -------------------------------------------------------

    def _run_serial(
        self, tasks, local_fn, on_complete, done_count, abort_after
    ) -> SupervisedOutcome:
        """In-process supervision: checkpoints and ABORT still apply
        (KILL/HANG need worker processes and are no-ops here)."""
        outcome = SupervisedOutcome()
        for index, (task_id, payload) in enumerate(tasks):
            if abort_after is not None and done_count >= abort_after:
                self._event("exec.abort", completed=done_count)
                raise RunInterrupted(
                    done_count, [tid for tid, _ in tasks[index:]]
                )
            attempt = 0
            while True:
                try:
                    result = local_fn(payload)
                except Exception as exc:
                    self._failure(
                        outcome,
                        task_id,
                        attempt,
                        "error",
                        f"{type(exc).__name__}: {exc}",
                        "local",
                    )
                    attempt += 1
                    if attempt >= self.config.max_task_attempts:
                        raise
                    outcome.retries += 1
                    self._count("exec.retries")
                    continue
                break
            outcome.results[task_id] = result
            done_count += 1
            self._count("exec.tasks.completed")
            if on_complete is not None:
                on_complete(task_id, result)
        if abort_after is not None and done_count >= abort_after:
            # The threshold can land exactly on the last task: the fault
            # still fires (the uninterrupted-vs-resumed invariant needs
            # the abort to be a function of completed count only).
            self._event("exec.abort", completed=done_count)
            raise RunInterrupted(done_count, [])
        return outcome

    # -- parallel path -----------------------------------------------------

    def _run_parallel(
        self,
        tasks,
        worker_fn,
        initializer,
        initargs,
        local_fn,
        on_complete,
        done_count,
        abort_after,
    ) -> SupervisedOutcome:
        cfg = self.config
        ctx = _mp_context()
        result_q = ctx.Queue()
        outcome = SupervisedOutcome()
        spawn = lambda label: _Worker(  # noqa: E731 - local factory
            ctx, label, result_q, worker_fn, initializer, initargs, self.faults
        )
        fleet: list[_Worker] = [
            spawn(f"w{i}") for i in range(min(cfg.workers, len(tasks)))
        ]
        spawned = len(fleet)
        #: (task_id, payload, attempt, ready_at)
        pending: list[tuple] = [(tid, payload, 0, 0.0) for tid, payload in tasks]

        def complete(task_id: str, result) -> None:
            nonlocal done_count
            outcome.results[task_id] = result
            done_count += 1
            self._count("exec.tasks.completed")
            if on_complete is not None:
                on_complete(task_id, result)
            if abort_after is not None and done_count >= abort_after:
                remaining = [t[0] for t in pending] + [
                    w.current[0] for w in fleet if w.current is not None
                ]
                self._event("exec.abort", completed=done_count)
                raise RunInterrupted(done_count, remaining)

        def degrade(task_id: str, payload, attempt: int) -> None:
            self._failure(
                outcome,
                task_id,
                attempt,
                "degraded",
                "worker attempts/respawns exhausted; ran in-process",
                "local",
            )
            outcome.degraded.append(task_id)
            self._count("exec.degraded")
            complete(task_id, local_fn(payload))

        def retry_or_degrade(task_id, payload, attempt) -> None:
            next_attempt = attempt + 1
            if next_attempt >= cfg.max_task_attempts:
                degrade(task_id, payload, next_attempt)
                return
            outcome.retries += 1
            self._count("exec.retries")
            ready_at = time.monotonic() + self._backoff(task_id, attempt)
            pending.append((task_id, payload, next_attempt, ready_at))

        def handle_worker_loss(worker: _Worker, kind: str, detail: str) -> None:
            nonlocal spawned
            task = worker.current
            worker.current = None
            worker.stop()
            fleet.remove(worker)
            self._count(f"exec.{'timeouts' if kind == 'timeout' else 'worker_deaths'}")
            if task is not None:
                task_id, payload, attempt, _ = task
                self._failure(outcome, task_id, attempt, kind, detail, worker.label)
                retry_or_degrade(task_id, payload, attempt)
            work_left = pending or any(w.current for w in fleet)
            if work_left and outcome.respawns < cfg.respawn_budget:
                outcome.respawns += 1
                self._count("exec.respawns")
                fleet.append(spawn(f"w{spawned}"))
                spawned += 1

        try:
            while pending or any(w.current is not None for w in fleet):
                now = time.monotonic()
                # Assign ready tasks to idle workers, submission order first.
                for worker in fleet:
                    if worker.current is not None or not worker.alive:
                        continue
                    ready = next(
                        (i for i, t in enumerate(pending) if t[3] <= now), None
                    )
                    if ready is None:
                        break
                    task_id, payload, attempt, _ = pending.pop(ready)
                    worker.assign(task_id, payload, attempt, cfg.task_timeout)
                # Collect one result (or tick the watchdog on timeout).
                try:
                    msg = result_q.get(timeout=cfg.poll_interval)
                except queue.Empty:
                    msg = None
                if msg is not None:
                    label, task_id, attempt, ok, value = msg
                    for worker in fleet:
                        if worker.current is not None and worker.current[0] == task_id:
                            worker.current = None
                            break
                    if task_id in outcome.results:
                        pass  # late duplicate from a timed-out worker
                    elif ok:
                        # Drop any requeued copy (terminated worker's
                        # result raced its own deadline).
                        pending[:] = [t for t in pending if t[0] != task_id]
                        complete(task_id, value)
                    else:
                        payload = dict(tasks)[task_id]
                        self._failure(
                            outcome, task_id, attempt, "error", value, label
                        )
                        retry_or_degrade(task_id, payload, attempt)
                # Watchdog: dead workers first, then blown deadlines.
                now = time.monotonic()
                for worker in list(fleet):
                    if not worker.alive:
                        code = worker.process.exitcode
                        handle_worker_loss(
                            worker,
                            "worker-death",
                            f"worker exited with code {code}",
                        )
                    elif (
                        worker.current is not None
                        and worker.current[3] is not None
                        and now > worker.current[3]
                    ):
                        worker.process.terminate()
                        handle_worker_loss(
                            worker,
                            "timeout",
                            f"task exceeded {cfg.task_timeout}s deadline",
                        )
                # No workers left and none can be spawned: finish inline.
                if not fleet and pending:
                    for task_id, payload, attempt, _ in list(pending):
                        pending.remove((task_id, payload, attempt, _))
                        degrade(task_id, payload, attempt)
        finally:
            for worker in fleet:
                worker.stop()
            result_q.close()
        return outcome
