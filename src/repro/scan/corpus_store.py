"""On-disk corpus artifact store (SQLite, columnar).

One ``corpus-<calibration_digest>.sqlite`` file per calibration holds
the generated corpus as numpy column blobs plus a small key/value meta
table.  The write path is crash-safe (temp file + ``os.replace``, the
same discipline as the old pickle cache); readers open the file through
a read-only URI, so any number of ``run_all`` workers can share one
store without locking against each other.

Compared to pickling the ecosystem (the pre-sharding cache), the store
is ~20x smaller and ~50x faster to load: only generated randomness is
persisted (see :mod:`repro.scan.corpus`); the deterministic scaffold is
rebuilt from the calibration on load.
"""

from __future__ import annotations

import json
import os
import sqlite3
from pathlib import Path

import numpy as np

__all__ = [
    "quarantine_store",
    "read_corpus",
    "read_meta",
    "reuse_or_quarantine",
    "verify_store",
    "write_corpus",
]

_SCHEMA = """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE arrays (
    name  TEXT PRIMARY KEY,
    dtype TEXT NOT NULL,
    shape TEXT NOT NULL,
    data  BLOB NOT NULL
);
"""


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
    Callers that inject it must re-validate with :func:`verify_store`.
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


def verify_store(path: str | Path) -> list[str]:
    """Integrity-check a store file; returns problems (empty == sound).

    Self-contained -- no calibration needed: the meta table carries the
    whole-corpus content digest plus per-brand layouts and digests
    (:func:`repro.scan.corpus.encode_corpus`), so corruption is both
    *detected* (sqlite-level damage, truncation, any flipped byte in a
    column blob) and *localised* to the brand slice it landed in.
    Never raises on a damaged file; unreadable is just another finding.
    """
    from repro.scan import corpus

    path = Path(path)
    if not path.exists():
        return ["store file does not exist"]
    try:
        arrays, meta = read_corpus(path)
    except Exception as exc:
        return [f"unreadable store: {type(exc).__name__}: {exc}"]
    problems: list[str] = []
    if meta.get("format") != corpus.CORPUS_FORMAT:
        problems.append(f"unsupported corpus format {meta.get('format')!r}")
    missing = [name for name in corpus.ALL_COLUMNS if name not in arrays]
    if missing:
        problems.append(f"missing columns: {', '.join(missing)}")
        return problems
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
    # meta table leaves the whole-corpus digest intact but would still
    # read as a datastore miss, so ``corpus verify`` must flag it too.
    layouts = meta.get("brand_layouts") or []
    expected = meta.get("brand_digests") or {}
    for row in layouts:
        try:
            actual = corpus.brand_digests(arrays, [row])[row[0]]
        except Exception:
            problems.append(f"brand {row[0]}: slice unreadable")
            continue
        if actual != expected.get(row[0]):
            problems.append(f"brand {row[0]}: slice digest mismatch")
    return problems


def reuse_or_quarantine(path: str | Path) -> bool:
    """Whether a corpus build may reuse the store at ``path``: only when
    :func:`verify_store` finds no problem.  A store that fails is
    quarantined, so the build that follows starts clean."""
    path = Path(path)
    if not path.exists():
        return False
    if not verify_store(path):
        return True
    quarantine_store(path)
    return False


def quarantine_store(path: str | Path) -> Path:
    """Move a corrupt store aside (``<name>.quarantined``) so the next
    build starts clean instead of tripping over the damaged file."""
    path = Path(path)
    target = path.with_name(path.name + ".quarantined")
    os.replace(path, target)
    return target
