"""Analysis configuration, read from ``[tool.repro.analysis]`` in
pyproject.toml.

Recognised keys::

    [tool.repro.analysis]
    paths = ["src", "tests", "scripts"]      # CLI targets (DEFAULT_PATHS if absent)
    exclude = ["tests/analysis/fixtures"]    # never analysed
    fix-exclude = ["tests"]                  # analysed but never autofixed
    baseline = ".repro-analysis-baseline.json"
    cache-dir = ".repro-analysis-cache"

    [tool.repro.analysis.per-path-ignores]
    "src/repro/net/clock.py" = ["RPR001"]    # the one blessed clock
    "tests/asn1" = ["RPR006"]                # DER tests write raw DER

Paths in ``exclude`` and ``per-path-ignores`` are repo-relative with
POSIX separators; a directory entry covers everything beneath it.
"""

from __future__ import annotations

import hashlib
import json
import tomllib
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["AnalysisConfig", "load_config"]

#: the CLI's targets when neither the command line nor pyproject names any.
DEFAULT_PATHS = ("src", "tests", "scripts")


@dataclass(frozen=True)
class AnalysisConfig:
    root: Path
    paths: tuple[str, ...] = DEFAULT_PATHS
    exclude: tuple[str, ...] = ()
    #: paths the linter analyses but ``--fix`` must never edit.  Not
    #: part of :meth:`digest` -- autofix eligibility cannot change what
    #: the analysis finds, so it must not invalidate cached findings.
    fix_exclude: tuple[str, ...] = ()
    baseline: str | None = None
    cache_dir: str = ".repro-analysis-cache"
    per_path_ignores: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def digest(self) -> str:
        """Hash of everything that can change findings (cache key part)."""
        payload = json.dumps(
            {
                "exclude": sorted(self.exclude),
                "per_path_ignores": {
                    key: sorted(value)
                    for key, value in sorted(self.per_path_ignores.items())
                },
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def is_excluded(self, rel_path: str) -> bool:
        return any(_covers(prefix, rel_path) for prefix in self.exclude)

    def is_fix_excluded(self, rel_path: str) -> bool:
        return any(_covers(prefix, rel_path) for prefix in self.fix_exclude)

    def ignored_rules(self, rel_path: str) -> frozenset[str]:
        ignored: set[str] = set()
        for prefix, rules in self.per_path_ignores.items():
            if _covers(prefix, rel_path):
                ignored.update(rules)
        return frozenset(ignored)


def _covers(prefix: str, rel_path: str) -> bool:
    prefix = prefix.rstrip("/")
    return rel_path == prefix or rel_path.startswith(prefix + "/")


def find_project_root(start: Path) -> Path:
    """Walk upward until a pyproject.toml (or .git) is found."""
    start = start.resolve()
    for candidate in (start, *start.parents):
        if (candidate / "pyproject.toml").is_file() or (
            candidate / ".git"
        ).exists():
            return candidate
    return start


def load_config(root: Path) -> AnalysisConfig:
    pyproject = root / "pyproject.toml"
    if not pyproject.is_file():
        return AnalysisConfig(root=root)
    with open(pyproject, "rb") as handle:
        data = tomllib.load(handle)
    section = data.get("tool", {}).get("repro", {}).get("analysis", {})
    ignores_raw = section.get("per-path-ignores", {})
    return AnalysisConfig(
        root=root,
        paths=tuple(section.get("paths", DEFAULT_PATHS)),
        exclude=tuple(section.get("exclude", ())),
        fix_exclude=tuple(section.get("fix-exclude", ())),
        baseline=section.get("baseline"),
        cache_dir=section.get("cache-dir", ".repro-analysis-cache"),
        per_path_ignores={
            str(key): tuple(value) for key, value in ignores_raw.items()
        },
    )
