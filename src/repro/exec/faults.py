"""Deterministic process/storage fault plans for the execution layer.

The sibling of :mod:`repro.net.faults`: where that module breaks the
*simulated network* the experiments measure, this one breaks the
*machinery running them* -- worker processes and the on-disk corpus
store -- so crash recovery is testable and seeded rather than something
that only shows up in week-long production runs.

Kinds:

- ``KILL`` -- the worker calls ``os._exit`` before running the task
  (a hard crash: no exception, no result, just a dead process).
- ``HANG`` -- the worker sleeps past the supervisor's task deadline
  (a wedged worker; the watchdog must terminate it).
- ``ABORT`` -- the *parent* stops the whole run after ``after_tasks``
  completed tasks (simulates the operator's machine dying mid-run;
  :class:`repro.exec.supervisor.RunInterrupted` is raised and the
  checkpoint journal is what makes ``--resume`` possible).
- ``TORN_WRITE`` -- the just-written store file is truncated
  (a torn write that survived the rename).
- ``FLIP_WRITE`` -- one byte of the just-written store file is flipped
  (silent media corruption).

Determinism: unlike the network plans (per-URL streams consumed in
request order), every decision here is a *pure function* of
``(plan seed, task id, attempt)`` -- no stream state.  That is what
makes resume exact: a run interrupted and resumed re-derives the very
same fault decisions for the tasks it re-runs, independent of how many
tasks the first run completed.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "EXEC_PROFILES",
    "ExecFaultKind",
    "ExecFaultPlan",
    "ExecFaultSpec",
    "plan_from_exec_profile",
]


class ExecFaultKind(enum.Enum):
    """Injectable process/storage failures."""

    #: worker process dies (``os._exit``) before running the task.
    KILL = "kill"
    #: worker sleeps past the supervisor's task deadline.
    HANG = "hang"
    #: parent aborts the run after N completed tasks.
    ABORT = "abort"
    #: store file is truncated right after the atomic rename.
    TORN_WRITE = "torn-write"
    #: one byte of the store file is flipped right after the rename.
    FLIP_WRITE = "flip-write"


_TASK_KINDS = (ExecFaultKind.KILL, ExecFaultKind.HANG)
_WRITE_KINDS = (ExecFaultKind.TORN_WRITE, ExecFaultKind.FLIP_WRITE)


@dataclass(frozen=True)
class ExecFaultSpec:
    """One fault rule.

    ``probability`` gates the kind per ``(task, attempt)``; ``attempts``
    restricts it to specific attempt numbers (the default ``(0,)`` --
    first try only -- guarantees a bounded-retry supervisor always
    converges, which the chaos-resume CI invariant depends on).
    ``after_tasks`` is what *defines* an ABORT; ``hang_seconds`` sizes a
    HANG (it must exceed the supervisor's ``task_timeout`` to matter).
    """

    kind: ExecFaultKind
    probability: float = 1.0
    attempts: tuple[int, ...] | None = (0,)
    after_tasks: int | None = None
    hang_seconds: float = 30.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.kind is ExecFaultKind.ABORT and self.after_tasks is None:
            raise ValueError("ABORT requires after_tasks")
        if self.after_tasks is not None and self.after_tasks < 1:
            raise ValueError("after_tasks must be >= 1")
        if self.hang_seconds <= 0:
            raise ValueError("hang_seconds must be positive")

    def applies_to_attempt(self, attempt: int) -> bool:
        return self.attempts is None or attempt in self.attempts


def _truncate_file(path: str | Path) -> None:
    path = Path(path)
    size = path.stat().st_size
    with open(path, "r+b") as handle:
        handle.truncate(max(1, size // 2))


def _flip_byte(byte_pick: float, bit: int):
    def edit(path: str | Path) -> None:
        path = Path(path)
        size = path.stat().st_size
        if size == 0:
            return
        # Flip a byte in the back half of the file: sqlite's header and
        # meta pages sit at the front, and the interesting corruption --
        # the kind only a content digest catches -- lands in the column
        # blobs.
        index = size // 2 + min(int(byte_pick * (size // 2)), size // 2 - 1)
        with open(path, "r+b") as handle:
            handle.seek(index)
            original = handle.read(1)
            handle.seek(index)
            handle.write(bytes([original[0] ^ (1 << bit)]))

    return edit


class ExecFaultPlan:
    """An ordered list of :class:`ExecFaultSpec` rules under one seed.

    Process decisions (:meth:`decide_task`) are evaluated worker-side --
    the plan is pickled into each worker -- and storage decisions
    (:meth:`decide_write`) parent-side, at the store write.  Both are
    pure functions of ``(seed, identifier, attempt)``.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rules: list[ExecFaultSpec] = []

    def add(self, spec: ExecFaultSpec) -> "ExecFaultPlan":
        self._rules.append(spec)
        return self

    @property
    def rules(self) -> tuple[ExecFaultSpec, ...]:
        return tuple(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def _draw(self, scope: str, identifier: str, attempt: int, index: int) -> float:
        key = f"{self.seed}/{scope}/{identifier}/{attempt}/{index}"
        return random.Random(key).random()

    @property
    def abort_after(self) -> int | None:
        """Completed-task count after which the parent aborts (or None)."""
        for spec in self._rules:
            if spec.kind is ExecFaultKind.ABORT:
                return spec.after_tasks
        return None

    @property
    def hang_seconds(self) -> float:
        for spec in self._rules:
            if spec.kind is ExecFaultKind.HANG:
                return spec.hang_seconds
        return 30.0

    def decide_task(self, task_id: str, attempt: int) -> ExecFaultKind | None:
        """First process fault that triggers for this (task, attempt)."""
        for index, spec in enumerate(self._rules):
            if spec.kind not in _TASK_KINDS:
                continue
            if not spec.applies_to_attempt(attempt):
                continue
            if self._draw("task", task_id, attempt, index) < spec.probability:
                return spec.kind
        return None

    def decide_write(self, label: str, attempt: int):
        """A file-corrupting callable for this store write, or None."""
        for index, spec in enumerate(self._rules):
            if spec.kind not in _WRITE_KINDS:
                continue
            if not spec.applies_to_attempt(attempt):
                continue
            draw = self._draw("write", label, attempt, index)
            if draw >= spec.probability:
                continue
            if spec.kind is ExecFaultKind.TORN_WRITE:
                return _truncate_file
            return _flip_byte(
                self._draw("flip-byte", label, attempt, index),
                int(self._draw("flip-bit", label, attempt, index) * 8) % 8,
            )
        return None


#: Named profiles for the CLI (``--exec-fault-profile``) and the CI
#: chaos-resume job.  KILL/HANG fire on attempt 0 only, so a supervisor
#: with ``max_task_attempts >= 2`` always converges; ``kill-worker``
#: additionally aborts the parent partway through, which is what the
#: interrupt-then-resume invariant exercises.
EXEC_PROFILES: dict[str, list[ExecFaultSpec]] = {
    "none": [],
    "kill-worker": [
        ExecFaultSpec(ExecFaultKind.KILL, probability=0.4, attempts=(0,)),
        ExecFaultSpec(ExecFaultKind.ABORT, probability=1.0, after_tasks=6),
    ],
    "hang-worker": [
        ExecFaultSpec(
            ExecFaultKind.HANG,
            probability=0.3,
            attempts=(0,),
            hang_seconds=30.0,
        ),
    ],
    "torn-write": [
        ExecFaultSpec(ExecFaultKind.TORN_WRITE, probability=1.0, attempts=(0,)),
    ],
    "chaos-proc": [
        ExecFaultSpec(ExecFaultKind.KILL, probability=0.3, attempts=(0,)),
        ExecFaultSpec(ExecFaultKind.FLIP_WRITE, probability=1.0, attempts=(0,)),
        ExecFaultSpec(ExecFaultKind.ABORT, probability=1.0, after_tasks=4),
    ],
}


def plan_from_exec_profile(name: str, seed: int = 0) -> ExecFaultPlan:
    """Build the named :data:`EXEC_PROFILES` entry as a seeded plan."""
    try:
        specs = EXEC_PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown exec fault profile {name!r}; known: {sorted(EXEC_PROFILES)}"
        ) from None
    plan = ExecFaultPlan(seed=seed)
    for spec in specs:
        plan.add(spec)
    return plan
