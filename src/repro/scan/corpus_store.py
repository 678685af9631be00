"""On-disk corpus store (SQLite, columnar): the one owner of the file.

One ``corpus-<calibration_digest>.sqlite`` file per calibration
(:func:`store_path`) holds the generated corpus as numpy column blobs
plus a small key/value meta table; only generated randomness is stored
(:mod:`repro.scan.corpus`).  This module owns the file's name, the one
soundness check (:func:`check_corpus`, run by :func:`read_store` on
what one read returns) and the verified write (:func:`write_verified`).
Whether to reuse a store or rebuild it is
:func:`repro.exec.corpusbuild.reuse_or_build`'s decision.

Writes are crash-safe (temp file + ``os.replace``); readers open the
file through a read-only URI, so any number of ``run_all`` workers can
share one store without locking against each other.
"""

from __future__ import annotations

import json
import os
import sqlite3
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.obs import NULL_OBS, Observability
from repro.scan import corpus
from repro.scan.calibration import Calibration, calibration_digest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.faults import ExecFaultPlan

__all__ = [
    "STORE_GLOB",
    "check_corpus",
    "quarantine_store",
    "read_corpus",
    "read_meta",
    "read_store",
    "store_path",
    "verify_store",
    "write_corpus",
    "write_verified",
]

#: every store file under a directory, whatever its calibration.
STORE_GLOB = "corpus-*.sqlite"

#: total tries for a verified write (first + rewrites after quarantine);
#: injected write faults default to attempt 0 only, so one rewrite
#: normally suffices.
_WRITE_ATTEMPTS = 3

_SCHEMA = """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE arrays (
    name  TEXT PRIMARY KEY,
    dtype TEXT NOT NULL,
    shape TEXT NOT NULL,
    data  BLOB NOT NULL
);
"""


def store_path(directory: str | Path, calibration: Calibration) -> Path:
    """Where the store for ``calibration`` lives under ``directory``."""
    return Path(directory) / f"corpus-{calibration_digest(calibration)}.sqlite"


def write_corpus(
    path: str | Path,
    arrays: dict[str, np.ndarray],
    meta: dict,
    *,
    fault=None,
) -> Path:
    """Atomically write (or replace) the store file at ``path``.

    ``fault`` is a storage-fault hook from
    :meth:`repro.exec.faults.ExecFaultPlan.decide_write`: a callable
    applied to the final path *after* the rename, modelling corruption
    that survives the atomic-write discipline (torn sectors, bit rot).
    :func:`write_verified` is the write that checks what landed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    try:
        tmp.unlink(missing_ok=True)
        connection = sqlite3.connect(tmp)
        try:
            connection.executescript(_SCHEMA)
            connection.executemany(
                "INSERT INTO meta (key, value) VALUES (?, ?)",
                [(key, json.dumps(value)) for key, value in meta.items()],
            )
            connection.executemany(
                "INSERT INTO arrays (name, dtype, shape, data) VALUES (?, ?, ?, ?)",
                [
                    (
                        name,
                        str(array.dtype),
                        json.dumps(list(array.shape)),
                        np.ascontiguousarray(array).tobytes(),
                    )
                    for name, array in arrays.items()
                ],
            )
            connection.commit()
        finally:
            connection.close()
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    if fault is not None:
        fault(path)
    return path


def write_verified(
    path: str | Path,
    arrays: dict[str, np.ndarray],
    meta: dict,
    *,
    faults: ExecFaultPlan | None = None,
    obs: Observability = NULL_OBS,
) -> Path:
    """Write the store, then check what landed with :func:`verify_store`.

    A store that fails is quarantined and rewritten, at most
    :data:`_WRITE_ATTEMPTS` times in all; ``faults`` injects corrupt
    writes (:meth:`ExecFaultPlan.decide_write`).  Raises
    ``RuntimeError`` when no attempt verifies.
    """
    for attempt in range(_WRITE_ATTEMPTS):
        fault = faults.decide_write("corpus", attempt) if faults else None
        write_corpus(path, arrays, meta, fault=fault)
        problems = verify_store(path)
        if not problems:
            return Path(path)
        quarantine_store(path)
        if obs.enabled:
            obs.tracer.event(
                "exec.store_corrupt", attempt=attempt, problems=len(problems)
            )
            obs.metrics.counter("exec.store_rewrites").inc()
    raise RuntimeError(
        f"corpus store failed verification after {_WRITE_ATTEMPTS} "
        f"write attempts: {problems[0]}"
    )


def _connect_readonly(path: Path) -> sqlite3.Connection:
    # mode=ro keeps concurrent run_all workers from ever taking a write
    # lock (and from "repairing" a file another process is replacing).
    return sqlite3.connect(f"file:{path}?mode=ro", uri=True)


def read_meta(path: str | Path) -> dict:
    """Just the meta table (corpus inspection without loading columns)."""
    connection = _connect_readonly(Path(path))
    try:
        rows = connection.execute("SELECT key, value FROM meta").fetchall()
    finally:
        connection.close()
    return {key: json.loads(value) for key, value in rows}


def read_corpus(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Load (columns, meta); raises on any malformed or foreign file."""
    path = Path(path)
    connection = _connect_readonly(path)
    try:
        meta_rows = connection.execute("SELECT key, value FROM meta").fetchall()
        array_rows = connection.execute(
            "SELECT name, dtype, shape, data FROM arrays"
        ).fetchall()
    finally:
        connection.close()
    meta = {key: json.loads(value) for key, value in meta_rows}
    arrays = {
        name: np.frombuffer(data, dtype=np.dtype(dtype)).reshape(
            json.loads(shape)
        )
        for name, dtype, shape, data in array_rows
    }
    return arrays, meta


def check_corpus(
    arrays: dict[str, np.ndarray],
    meta: dict,
    calibration: Calibration | None = None,
) -> list[str]:
    """The one soundness check over a store's columns and meta table;
    returns problems (empty == sound).

    It needs no calibration: the meta table carries the row counts, the
    whole-corpus content digest and the per-brand layouts and digests
    (:func:`repro.scan.corpus.encode_corpus`), so corruption is both
    detected and localised to the brand slice it landed in.  Given a
    ``calibration`` it also requires that calibration's digest, which
    covers every calibration field, not only the seed and scale.
    A meta value of the wrong type or shape is a finding, never raised.
    """
    problems: list[str] = []
    if meta.get("format") != corpus.CORPUS_FORMAT:
        problems.append(f"unsupported corpus format {meta.get('format')!r}")
    if calibration is not None and meta.get(
        "calibration_digest"
    ) != calibration_digest(calibration):
        problems.append("corpus was generated under a different calibration")
    missing = [name for name in corpus.ALL_COLUMNS if name not in arrays]
    if missing:
        problems.append(f"missing columns: {', '.join(missing)}")
        return problems
    for key in ("leaf_count", "entry_count", "crl_count"):
        prefix, count = key.removesuffix("count"), meta.get(key)
        rows = {arrays[c].shape[:1] for c in corpus.ALL_COLUMNS if c.startswith(prefix)}
        if type(count) is not int or rows != {(count,)}:
            problems.append(f"meta {key} {count!r} does not count the {prefix}* rows")
    try:
        digest = corpus.corpus_digest(arrays)
    except Exception as exc:
        return problems + [f"undigestable columns: {type(exc).__name__}: {exc}"]
    if digest != meta.get("corpus_digest"):
        problems.append(
            f"corpus digest mismatch: stored {meta.get('corpus_digest')!r}, "
            f"computed {digest!r}"
        )
    # Always cross-check the per-brand digests: a tampered digest in the
    # meta table leaves the whole-corpus digest intact.
    layouts, expected = meta.get("brand_layouts"), meta.get("brand_digests")
    if not (isinstance(layouts, list) and layouts and isinstance(expected, dict)):
        return problems + ["meta brand_layouts or brand_digests is malformed"]
    for row in layouts:
        try:
            brand = row[0]
            sound = corpus.brand_digests(arrays, [row])[brand] == expected.get(brand)
        except Exception:
            problems.append(f"meta brand_layouts row {row!r} is unreadable")
            continue
        if not sound:
            problems.append(f"brand {brand}: slice digest mismatch")
    return problems


def read_store(
    path: str | Path, calibration: Calibration | None = None
) -> tuple[dict[str, np.ndarray], dict, list[str]]:
    """Read the store at ``path`` once and :func:`check_corpus` what was
    read: ``(arrays, meta, problems)``.  Never raises on a damaged file;
    a missing or unreadable one is a finding, with nothing read."""
    path = Path(path)
    if not path.exists():
        return {}, {}, ["store file does not exist"]
    try:
        arrays, meta = read_corpus(path)
    except Exception as exc:
        return {}, {}, [f"unreadable store: {type(exc).__name__}: {exc}"]
    return arrays, meta, check_corpus(arrays, meta, calibration)


def verify_store(path: str | Path) -> list[str]:
    """Integrity-check a store file; returns problems (empty == sound)."""
    return read_store(path)[2]


def quarantine_store(path: str | Path) -> Path:
    """Move a corrupt store aside (``<name>.quarantined``) so the next
    build starts clean instead of tripping over the damaged file."""
    path = Path(path)
    target = path.with_name(path.name + ".quarantined")
    os.replace(path, target)
    return target
