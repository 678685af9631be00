"""Supervised, checkpointed corpus builds.

:func:`build_corpus_supervised` is the robust sibling of
``repro.api.corpus.build``: each generation shard runs under the
:class:`~repro.exec.supervisor.Supervisor` (deadlines, retries, respawn,
degradation), and every completed shard's columnar parts are checkpointed
to disk -- an ``.npz`` parts file plus a journal line carrying its
content digest -- before the next shard starts.  A build interrupted at
any point (worker kills, an injected parent ABORT, a real Ctrl-C between
shards) resumes with ``resume=True``: validated checkpoints are loaded,
only the missing shards are regenerated, and because every brand is built
from seed-stable substreams the merged corpus is *byte-identical* to an
uninterrupted build (the chaos-resume CI invariant asserts this on the
``corpus_digest``).

Storage faults close the loop: the final store write accepts an injected
corruption (:meth:`ExecFaultPlan.decide_write`), after which the store is
re-verified (:func:`repro.scan.corpus_store.verify_store`); a corrupt
store is quarantined and rewritten, bounded by ``_WRITE_ATTEMPTS``.
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
from repro.scan import corpus, corpus_store, shardgen
from repro.scan.calibration import Calibration
from repro.scan.datastore import calibration_digest
from repro.scan.ecosystem import Ecosystem

__all__ = ["build_corpus_supervised"]

#: total tries for the final store write (first + rewrites after
#: quarantine); injected write faults default to attempt 0 only, so one
#: rewrite normally suffices.
_WRITE_ATTEMPTS = 3


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:20]


def _build_shard(payload):
    """Worker entry: generate one shard group's brand parts."""
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


def build_corpus_supervised(
    directory: str | Path,
    *,
    calibration: Calibration | None = None,
    scale: float = 0.002,
    seed: int = 20151028,
    shards: int = 4,
    config: SupervisorConfig | None = None,
    checkpoint_dir: str | Path | None = None,
    resume: bool = False,
    faults: ExecFaultPlan | None = None,
    obs: Observability | None = None,
    force: bool = False,
    profiles=PAPER_CA_PROFILES,
) -> dict:
    """Build (or resume building) a corpus store under supervision.

    Returns an info dict: ``path``, ``corpus_digest``, ``reused``,
    ``resumed_shards``, ``built_shards``, plus the supervision tallies.
    Raises :class:`RunInterrupted` when an injected ABORT stops the run
    (completed shards are already journaled; call again with
    ``resume=True``).
    """
    obs = obs if obs is not None else NULL_OBS
    calibration = calibration or Calibration(scale=scale, seed=seed)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    digest = calibration_digest(calibration)
    store_path = directory / f"corpus-{digest}.sqlite"

    if not force and corpus_store.reuse_or_quarantine(store_path):
        meta = corpus_store.read_meta(store_path)
        return {
            "path": str(store_path),
            "corpus_digest": meta.get("corpus_digest"),
            "reused": True,
            "resumed_shards": 0,
            "built_shards": 0,
            "failures": [],
        }

    checkpoint_dir = Path(
        checkpoint_dir if checkpoint_dir is not None else directory / ".repro-checkpoints"
    )
    journal = CheckpointJournal(checkpoint_dir / f"corpus-{digest}.jsonl", digest)
    if not resume:
        journal.start_fresh()

    plan = [
        group
        for group in shardgen.plan_shards(calibration, profiles, shards)
        if group
    ]
    tasks = [
        (f"shard{index:02d}", (calibration, group, profiles))
        for index, group in enumerate(plan)
    ]

    parts_by_brand: dict[str, dict] = {}
    resumed = 0
    remaining: list[tuple[str, object]] = []
    for task_id, payload in tasks:
        entry = journal.get(task_id) if resume else None
        if entry is not None:
            parts_path = checkpoint_dir / str(entry.get("file", ""))
            try:
                if _file_digest(parts_path) != entry.get("sha256"):
                    raise ValueError("checkpoint digest mismatch")
                loaded = _load_parts(parts_path)
            except Exception:
                # Torn/corrupt/missing parts file: a miss, rebuild it.
                remaining.append((task_id, payload))
                if obs.enabled:
                    obs.metrics.counter("exec.checkpoint.misses").inc()
                continue
            parts_by_brand.update(loaded)
            resumed += 1
            if obs.enabled:
                obs.metrics.counter("exec.checkpoint.hits").inc()
        else:
            remaining.append((task_id, payload))
            if obs.enabled and resume:
                obs.metrics.counter("exec.checkpoint.misses").inc()

    def on_complete(task_id: str, shard_parts: dict) -> None:
        parts_by_brand.update(shard_parts)
        parts_path = checkpoint_dir / f"parts-{digest[:8]}-{task_id}.npz"
        checkpoint_dir.mkdir(parents=True, exist_ok=True)
        _save_parts(parts_path, shard_parts)
        journal.record(
            task_id,
            {"file": parts_path.name, "sha256": _file_digest(parts_path)},
        )

    supervisor = Supervisor(
        config or SupervisorConfig(), obs=obs, faults=faults
    )
    try:
        outcome = supervisor.run(
            remaining,
            _build_shard,
            on_complete=on_complete,
            completed_before=resumed,
            allow_abort=not journal.aborted,
        )
    except RunInterrupted:
        journal.mark_aborted()
        raise

    ecosystem = Ecosystem.from_parts(calibration, parts_by_brand, profiles)
    arrays, meta = corpus.encode_corpus(ecosystem)

    problems: list[str] = ["store not written yet"]
    for attempt in range(_WRITE_ATTEMPTS):
        fault = faults.decide_write("corpus", attempt) if faults else None
        corpus_store.write_corpus(store_path, arrays, meta, fault=fault)
        problems = corpus_store.verify_store(store_path)
        if not problems:
            break
        corpus_store.quarantine_store(store_path)
        if obs.enabled:
            obs.tracer.event(
                "exec.store_corrupt", attempt=attempt, problems=len(problems)
            )
            obs.metrics.counter("exec.store_rewrites").inc()
    if problems:
        raise RuntimeError(
            f"corpus store failed verification after {_WRITE_ATTEMPTS} "
            f"write attempts: {problems[0]}"
        )

    return {
        "path": str(store_path),
        "corpus_digest": meta["corpus_digest"],
        "reused": False,
        "resumed_shards": resumed,
        "built_shards": len(outcome.results),
        "failures": [
            f"{record.kind}: {record.task_id} (attempt {record.attempt})"
            for record in outcome.failures
        ],
    }
