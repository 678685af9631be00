"""The corpus builder: one body for every corpus build.

:func:`build_corpus` reuses an existing store only when it verifies
(:func:`repro.scan.corpus_store.reuse_or_quarantine`); otherwise it
generates the corpus and writes it through
:meth:`repro.scan.datastore.ArtifactCache.store_ecosystem`, which
verifies what it wrote and quarantines and rewrites a corrupt store
(storage faults from :meth:`ExecFaultPlan.decide_write` close that
loop).

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

import hashlib
import os
from pathlib import Path

import numpy as np

from repro.ca.profiles import PAPER_CA_PROFILES
from repro.exec.checkpoint import CheckpointJournal
from repro.exec.faults import ExecFaultPlan
from repro.exec.supervisor import RunInterrupted, Supervisor, SupervisorConfig
from repro.obs import NULL_OBS, Observability
from repro.scan import corpus_store, shardgen
from repro.scan.calibration import Calibration
from repro.scan.datastore import ArtifactCache, calibration_digest
from repro.scan.ecosystem import Ecosystem

__all__ = ["build_corpus"]


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
    cache = ArtifactCache(directory, obs=obs)
    store_path = cache.ecosystem_path(calibration)
    workers = workers or 1

    reused = not force and corpus_store.reuse_or_quarantine(store_path)
    tallies = {"resumed_shards": 0, "built_shards": 0, "failures": []}
    if not reused:
        if workers <= 1 and checkpoint_dir is None:
            ecosystem = Ecosystem(calibration, profiles)
            tallies["built_shards"] = 1
        else:
            ecosystem, tallies = _build_sharded(
                calibration,
                profiles,
                max(shards, workers),
                workers,
                None if checkpoint_dir is None else Path(checkpoint_dir),
                resume,
                faults,
                obs,
            )
        cache.store_ecosystem(calibration, ecosystem, faults=faults)
    meta = corpus_store.read_meta(store_path)
    return {
        "path": str(store_path),
        "corpus_digest": meta.get("corpus_digest"),
        "reused": reused,
        **tallies,
    }
