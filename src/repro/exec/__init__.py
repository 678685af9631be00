"""Supervised execution layer (docs/ROBUSTNESS.md).

``repro.exec`` is the one home for process management in this codebase:
every fan-out -- the experiment sweep and the sharded corpus build --
runs on :class:`Supervisor`, in-process for one worker and across
watched worker processes otherwise.  The static-analysis rule RPR012
enforces that -- direct ``multiprocessing`` / ``concurrent.futures``
pool construction anywhere else is a lint finding -- so process-level
robustness (deadline watchdogs, seeded-backoff retries, respawn
budgets, checkpoint/resume, fault injection) is a property of the whole
pipeline, not of individual call sites.

Layers:

- :mod:`repro.exec.supervisor` -- :class:`Supervisor`: per-task deadline
  watchdog, seeded-backoff retries, bounded worker respawns, graceful
  degradation to in-process execution, structured
  :class:`FailureRecord`\\ s.
- :mod:`repro.exec.checkpoint` -- :class:`CheckpointJournal`: an atomic
  temp+rename JSONL journal of completed work, keyed so stale
  checkpoints are misses (the `corpus_store` discipline).  A run keeps
  one only when it is given a checkpoint directory.
- :mod:`repro.exec.faults` -- deterministic process/storage fault plans
  (worker kills, hangs, parent aborts, corrupt store writes), modeled on
  :mod:`repro.net.faults` profiles.
- :mod:`repro.exec.corpusbuild` -- the corpus builder: in-process or
  sharded across supervised workers, with per-shard checkpoints under a
  checkpoint directory (imported lazily; it pulls in numpy).

Determinism: fault decisions are keyed on ``(seed, task, attempt)``, so
an interrupted run resumed from its journal re-derives exactly the
decisions the uninterrupted run would have made -- which is why the
chaos-resume invariant (interrupt + resume == uninterrupted, byte for
byte) can be asserted in CI.
"""

from __future__ import annotations

from repro.exec.checkpoint import CheckpointJournal
from repro.exec.faults import (
    EXEC_PROFILES,
    ExecFaultKind,
    ExecFaultPlan,
    ExecFaultSpec,
    plan_from_exec_profile,
)
from repro.exec.supervisor import (
    FailureRecord,
    RunInterrupted,
    SupervisedOutcome,
    Supervisor,
    SupervisorConfig,
)

__all__ = [
    "CheckpointJournal",
    "EXEC_PROFILES",
    "ExecFaultKind",
    "ExecFaultPlan",
    "ExecFaultSpec",
    "FailureRecord",
    "RunInterrupted",
    "SupervisedOutcome",
    "Supervisor",
    "SupervisorConfig",
    "plan_from_exec_profile",
]
