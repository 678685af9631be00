"""Content-hash result cache under ``.repro-analysis-cache/``.

A warm run re-analyses only files whose bytes changed: each entry is
keyed by the file's relative path and guarded by the content hash plus
the engine/config/project digests, any of which invalidates it.  The
project digest matters for the cross-file rules -- editing an enum
definition must re-check every cached dispatcher -- and is why the
cache key cannot be the content hash alone.

Entries are written atomically (temp file + ``os.replace``) so parallel
or interrupted runs can never leave a truncated entry behind; unreadable
entries are treated as misses and rewritten (a damaged corpus store is
likewise rebuilt, after :mod:`repro.exec.corpusbuild` quarantines it).
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro.analysis.findings import Finding

__all__ = ["ResultCache"]


class ResultCache:
    def __init__(
        self,
        directory: Path,
        engine_version: str,
        config_digest: str,
        project_digest: str,
    ) -> None:
        self.directory = Path(directory)
        self._guard = f"{engine_version}/{config_digest}/{project_digest}"

    @staticmethod
    def content_hash(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    def _entry_path(self, rel_path: str) -> Path:
        name = hashlib.sha256(rel_path.encode("utf-8")).hexdigest()[:24]
        return self.directory / f"{name}.json"

    def load(self, rel_path: str, content_hash: str) -> list[Finding] | None:
        """Cached findings, or None on any miss/mismatch/corruption."""
        try:
            raw = json.loads(self._entry_path(rel_path).read_text("utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        if (
            not isinstance(raw, dict)
            or raw.get("guard") != self._guard
            or raw.get("content_hash") != content_hash
            or raw.get("rel_path") != rel_path
        ):
            return None
        try:
            return [Finding.from_dict(item) for item in raw["findings"]]
        except (KeyError, TypeError, ValueError):
            return None

    def store(
        self, rel_path: str, content_hash: str, findings: list[Finding]
    ) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._entry_path(rel_path)
        payload = json.dumps(
            {
                "guard": self._guard,
                "rel_path": rel_path,
                "content_hash": content_hash,
                "findings": [finding.as_dict() for finding in findings],
            }
        )
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            tmp.write_text(payload, encoding="utf-8")
            os.replace(tmp, path)
        except OSError:
            # The cache is an optimisation; never fail the run over it.
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
