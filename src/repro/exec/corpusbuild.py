"""The corpus builder: one reuse-or-build body for every corpus store.

:func:`reuse_or_build` serves :func:`build_corpus` (``corpus build``,
``run_all``'s prewarm) and a study's ``cache_dir``: it reuses a sound
store, or quarantines any other (so no path reuses a store one path
refused), generates the corpus, and writes it with
:func:`repro.scan.corpus_store.write_verified`, which checks what landed
(storage faults from :meth:`ExecFaultPlan.decide_write` close that loop).

Generation runs in-process (``Ecosystem(calibration)``) for one worker
and no checkpoint directory.  Otherwise each
:func:`repro.scan.shardgen.plan_shards` group is one
:class:`~repro.exec.supervisor.Supervisor` task (deadlines, retries,
respawn, degradation) and the shards' columnar parts merge through
:meth:`Ecosystem.from_parts`.  Under a ``checkpoint_dir`` every completed
shard's parts are checkpointed -- an ``.npz`` parts file plus a journal
line carrying its content digest -- before the next shard starts.  A
build interrupted at any point (worker kills, an injected parent ABORT,
a real Ctrl-C between shards) resumes with ``resume=True``: validated
checkpoints are loaded, only the missing shards are regenerated, and
because every brand is built from seed-stable substreams the merged
corpus is *byte-identical* to an uninterrupted build (the chaos-resume
CI invariant asserts this on the ``corpus_digest``).
"""

from __future__ import annotations

import contextlib
import hashlib
import os
from collections.abc import Callable
from pathlib import Path

import numpy as np

from repro.ca.profiles import PAPER_CA_PROFILES
from repro.exec.checkpoint import CheckpointJournal
from repro.exec.faults import ExecFaultPlan
from repro.exec.supervisor import RunInterrupted, Supervisor, SupervisorConfig
from repro.obs import NULL_OBS, Observability
from repro.scan import corpus, corpus_store, shardgen
from repro.scan.calibration import Calibration, calibration_digest
from repro.scan.ecosystem import Ecosystem

__all__ = ["build_corpus", "reuse_or_build"]


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:20]


def _build_shard(payload):
    """Task body: generate one shard group's brand parts."""
    calibration, group, profiles = payload
    return shardgen.build_shard_parts(calibration, group, profiles)


def _save_parts(path: Path, parts_by_brand: dict) -> None:
    """Atomically persist one shard's parts (brand|column flattened)."""
    flat = {
        f"{brand}|{column}": array
        for brand, arrays in parts_by_brand.items()
        for column, array in arrays.items()
    }
    tmp = path.with_suffix(f".tmp.{os.getpid()}.npz")
    try:
        with open(tmp, "wb") as handle:
            np.savez(handle, **flat)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _load_parts(path: Path) -> dict:
    parts_by_brand: dict[str, dict] = {}
    with np.load(path, allow_pickle=False) as bundle:
        for key in bundle.files:
            brand, column = key.split("|", 1)
            parts_by_brand.setdefault(brand, {})[column] = bundle[key]
    return parts_by_brand


def _load_checkpoint(journal, checkpoint_dir: Path, task_id: str) -> dict | None:
    """A journaled shard's parts, or None: no entry, or a torn, corrupt
    or missing parts file (a miss -- the shard is rebuilt)."""
    entry = journal.get(task_id)
    if entry is None:
        return None
    parts_path = checkpoint_dir / str(entry.get("file", ""))
    try:
        if _file_digest(parts_path) != entry.get("sha256"):
            return None
        return _load_parts(parts_path)
    except Exception:
        return None


def _build_sharded(
    calibration: Calibration,
    profiles,
    shards: int,
    workers: int,
    checkpoint_dir: Path | None,
    resume: bool,
    faults: ExecFaultPlan | None,
    obs: Observability,
) -> tuple[Ecosystem, dict]:
    """Shard groups as supervisor tasks, merged through ``from_parts``;
    returns the ecosystem and the build's shard tallies."""
    digest = calibration_digest(calibration)
    plan = [
        group
        for group in shardgen.plan_shards(calibration, profiles, shards)
        if group
    ]
    tasks = [
        (f"shard{index:02d}", (calibration, group, profiles))
        for index, group in enumerate(plan)
    ]
    journal = None
    if checkpoint_dir is not None:
        journal = CheckpointJournal(
            checkpoint_dir / f"corpus-{digest}.jsonl", digest
        )
        if not resume:
            journal.start_fresh()

    parts_by_brand: dict[str, dict] = {}
    remaining: list[tuple[str, object]] = []
    for task_id, payload in tasks:
        loaded = None
        if resume:
            loaded = _load_checkpoint(journal, checkpoint_dir, task_id)
        if loaded is None:
            remaining.append((task_id, payload))
        else:
            parts_by_brand.update(loaded)
        if obs.enabled and resume:
            hit = "misses" if loaded is None else "hits"
            obs.metrics.counter(f"exec.checkpoint.{hit}").inc()
    resumed = len(tasks) - len(remaining)

    def on_complete(task_id: str, shard_parts: dict) -> None:
        parts_by_brand.update(shard_parts)
        if journal is None:
            return
        parts_path = checkpoint_dir / f"parts-{digest[:8]}-{task_id}.npz"
        checkpoint_dir.mkdir(parents=True, exist_ok=True)
        _save_parts(parts_path, shard_parts)
        journal.record(
            task_id,
            {"file": parts_path.name, "sha256": _file_digest(parts_path)},
        )

    supervisor = Supervisor(
        SupervisorConfig(workers=workers), obs=obs, faults=faults
    )
    try:
        outcome = supervisor.run(
            remaining,
            _build_shard,
            on_complete=on_complete,
            completed_before=resumed,
            allow_abort=not (journal is not None and journal.aborted),
        )
    except RunInterrupted:
        if journal is not None:
            journal.mark_aborted()
        raise
    ecosystem = Ecosystem.from_parts(calibration, parts_by_brand, profiles)
    return ecosystem, {
        "resumed_shards": resumed,
        "built_shards": len(outcome.results),
        "failures": [
            f"{record.kind}: {record.task_id} (attempt {record.attempt})"
            for record in outcome.failures
        ],
    }


def reuse_or_build(
    directory: str | Path,
    calibration: Calibration,
    generate: Callable[[], Ecosystem],
    *,
    decode: bool = False,
    force: bool = False,
    faults: ExecFaultPlan | None = None,
    obs: Observability | None = None,
) -> tuple[Ecosystem | None, dict, bool]:
    """The one reuse-or-build body: ``(ecosystem, meta, reused)``.

    Unless ``force``, the store for ``calibration`` under ``directory``
    is read once and reused when :func:`corpus_store.read_store` finds
    no problem and, with ``decode``, :meth:`Ecosystem.from_corpus`
    accepts the arrays it read (else the ecosystem is None).  Any other
    store is quarantined, and ``generate``'s ecosystem is written.
    Raises ``NotADirectoryError`` before anything is read or generated
    when ``directory`` is an existing file.
    """
    if Path(directory).exists() and not Path(directory).is_dir():
        raise NotADirectoryError(
            f"corpus store directory {str(directory)!r} is a file"
        )
    obs = obs if obs is not None else NULL_OBS
    path = corpus_store.store_path(directory, calibration)
    digest = calibration_digest(calibration)
    reused = False
    if not force and path.exists():
        arrays, meta, problems = corpus_store.read_store(path, calibration)
        ecosystem = None
        if not problems and decode:
            try:
                ecosystem = Ecosystem.from_corpus(calibration, arrays, meta)
            except Exception:
                # The decoder raises arbitrary types on columns it refuses.
                problems = ["refused by the decoder"]
        reused = not problems
        if problems:
            # Another reader of the directory may have moved it first.
            with contextlib.suppress(FileNotFoundError):
                corpus_store.quarantine_store(path)
    if not force and obs.enabled:
        outcome = "hit" if reused else "miss"
        obs.tracer.event(f"artifact_cache.{outcome}", calibration=digest)
        obs.metrics.counter(
            "artifact_cache." + ("hits" if reused else "misses")
        ).inc()
    if reused:
        return ecosystem, meta, True
    ecosystem = generate()
    if obs.enabled:
        obs.tracer.event("artifact_cache.store", calibration=digest)
        obs.metrics.counter("artifact_cache.stores").inc()
    arrays, meta = corpus.encode_corpus(ecosystem)
    corpus_store.write_verified(path, arrays, meta, faults=faults, obs=obs)
    return ecosystem, meta, False


def build_corpus(
    directory: str | Path,
    *,
    calibration: Calibration | None = None,
    scale: float = 0.002,
    seed: int = 20151028,
    shards: int = 1,
    workers: int | None = None,
    checkpoint_dir: str | Path | None = None,
    resume: bool = False,
    faults: ExecFaultPlan | None = None,
    obs: Observability | None = None,
    force: bool = False,
    profiles=PAPER_CA_PROFILES,
) -> dict:
    """Build (or reuse, or resume building) the corpus store for a
    calibration under ``directory``.

    ``shards`` splits generation into supervisor tasks (at least one per
    worker); it never changes the stored bytes.  A journal is kept only
    under ``checkpoint_dir``, and ``resume=True`` without one raises
    ``ValueError``.  Returns an info dict: ``path``, ``corpus_digest``,
    ``reused``, ``resumed_shards``, ``built_shards`` (an in-process build
    counts as one) and ``failures``, the supervisor's recovery actions.
    Raises :class:`RunInterrupted` when an injected ABORT stops the run
    (completed shards are already journaled; call again with
    ``resume=True``).
    """
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True needs the checkpoint_dir to resume from")
    obs = obs if obs is not None else NULL_OBS
    calibration = calibration or Calibration(scale=scale, seed=seed)
    path = corpus_store.store_path(directory, calibration)
    workers = workers or 1
    tallies = {"resumed_shards": 0, "built_shards": 0, "failures": []}

    def generate() -> Ecosystem:
        if workers <= 1 and checkpoint_dir is None:
            tallies["built_shards"] = 1
            return Ecosystem(calibration, profiles)
        ecosystem, built = _build_sharded(
            calibration,
            profiles,
            max(shards, workers),
            workers,
            None if checkpoint_dir is None else Path(checkpoint_dir),
            resume,
            faults,
            obs,
        )
        tallies.update(built)
        return ecosystem

    _, meta, reused = reuse_or_build(
        directory, calibration, generate, force=force, faults=faults, obs=obs
    )
    return {
        "path": str(path),
        "corpus_digest": meta.get("corpus_digest"),
        "reused": reused,
        **tallies,
    }
