"""``python -m repro.analysis`` -- the determinism & PKI-invariant gate.

Usage::

    python -m repro.analysis [paths...] [--format text|json]
        [--baseline FILE] [--select RPR001,RPR005] [--ignore RPR003]
        [--no-cache] [--cache-dir DIR] [--update-baseline] [--list-rules]
        [--fix] [--diff]

Exit codes: 0 -- no new findings; 1 -- new findings (or parse errors);
2 -- usage/configuration error.  Findings already recorded in the
baseline never fail the gate; this repo ships an empty baseline, so any
finding fails CI (docs/STATIC_ANALYSIS.md).

``--fix`` applies every ``safe``-class autofix suggestion in place,
re-lints the touched files, and repeats until a pass applies nothing --
so running it twice is a byte-identical no-op.  ``--diff`` renders the
same edits as a unified diff without writing anything.  The exit code
always describes the tree the command leaves behind: after ``--fix`` it
reflects the remaining (unfixable) findings.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.analysis.baseline import load_baseline, partition, write_baseline
from repro.analysis.cache import ResultCache
from repro.analysis.config import AnalysisConfig, find_project_root, load_config
from repro.analysis.engine import ENGINE_VERSION, analyze_source
from repro.analysis.findings import Finding
from repro.analysis.fixes import (
    MAX_ROUNDS,
    apply_suggestions,
    fixable,
    render_diff,
)
from repro.analysis.project import build_project_context
from repro.analysis.rules import default_rules, rules_catalogue

__all__ = ["main"]

DEFAULT_BASELINE = ".repro-analysis-baseline.json"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description="AST-based determinism & PKI-invariant linter",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories (default: [tool.repro.analysis] paths)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help=f"accepted-findings file (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule codes to enable exclusively",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        metavar="RULES",
        help="comma-separated rule codes to disable",
    )
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result cache location (default: .repro-analysis-cache)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="record every current finding as accepted and exit 0",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    parser.add_argument(
        "--fix",
        action="store_true",
        help="apply safe-class autofix suggestions in place and re-lint",
    )
    parser.add_argument(
        "--diff",
        action="store_true",
        help="show the --fix edits as a unified diff without writing",
    )
    return parser


def _discover(root: Path, targets: list[Path], config: AnalysisConfig):
    """Yield (rel_path, abs_path) for every analysable .py file."""
    seen: set[str] = set()
    for target in targets:
        if target.is_file():
            candidates = [target]
        else:
            candidates = sorted(target.rglob("*.py"))
        for path in candidates:
            if path.suffix != ".py":
                continue
            resolved = path.resolve()
            try:
                rel = resolved.relative_to(root).as_posix()
            except ValueError:
                rel = path.as_posix()
            if any(
                part == "__pycache__" or part.startswith(".")
                for part in Path(rel).parts
            ):
                continue
            if rel in seen or config.is_excluded(rel):
                continue
            seen.add(rel)
            yield rel, resolved


def _parse_codes(raw: str | None) -> frozenset[str] | None:
    if raw is None:
        return None
    return frozenset(
        code.strip().upper() for code in raw.split(",") if code.strip()
    )


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        for entry in rules_catalogue():
            print(f"{entry['code']} {entry['name']:24s} {entry['summary']}")
        return 0

    started = time.perf_counter()
    root = find_project_root(Path.cwd())
    config = load_config(root)
    # Paths on the command line are relative to the working directory;
    # the configured ones are relative to the project root.
    raw_targets = args.paths or [root / raw for raw in config.paths]
    targets: list[Path] = []
    for raw in raw_targets:
        path = Path(raw)
        if not path.exists():
            print(f"repro.analysis: no such path: {raw}", file=sys.stderr)
            return 2
        targets.append(path)

    select = _parse_codes(args.select)
    ignore = _parse_codes(args.ignore) or frozenset()
    known = {entry["code"] for entry in rules_catalogue()}
    for code in (select or frozenset()) | ignore:
        if code not in known and code != "RPR000":
            print(f"repro.analysis: unknown rule {code}", file=sys.stderr)
            return 2

    files = list(_discover(root, targets, config))
    # The project pre-pass also covers the configured default roots so
    # cross-file rules see enum definitions even when analysing a subset
    # (e.g. `python -m repro.analysis tests`).
    context_files = dict(files)
    for raw in config.paths:
        path = root / raw
        if path.exists():
            context_files.update(_discover(root, [path], config))
    project = build_project_context(sorted(context_files.items()))

    cache = None
    if not args.no_cache:
        cache_dir = Path(args.cache_dir or config.cache_dir)
        if not cache_dir.is_absolute():
            cache_dir = root / cache_dir
        cache = ResultCache(
            cache_dir, ENGINE_VERSION, config.digest(), project.digest()
        )

    rules = default_rules()
    sources: dict[str, str] = {}
    findings_by_path: dict[str, list[Finding]] = {}
    cached_hits = 0
    for rel_path, abs_path in files:
        try:
            data = abs_path.read_bytes()
        except OSError as exc:
            findings_by_path[rel_path] = [
                Finding(
                    "RPR000", rel_path, 1, 0, f"unreadable: {exc}", "unreadable"
                )
            ]
            continue
        content_hash = ResultCache.content_hash(data)
        file_findings = (
            cache.load(rel_path, content_hash) if cache is not None else None
        )
        source = data.decode("utf-8", errors="replace")
        if file_findings is None:
            file_findings = analyze_source(source, rel_path, rules, project)
            if cache is not None:
                cache.store(rel_path, content_hash, file_findings)
        else:
            cached_hits += 1
        sources[rel_path] = source
        findings_by_path[rel_path] = file_findings

    # Post-filters: per-path config ignores, then --select/--ignore.
    # RPR000 (parse failure) is never filtered -- a file the engine
    # cannot read is a finding regardless of rule selection.
    def keep(finding: Finding) -> bool:
        if finding.rule == "RPR000":
            return True
        if finding.rule in config.ignored_rules(finding.path):
            return False
        if select is not None and finding.rule not in select:
            return False
        return finding.rule not in ignore

    def collect() -> list[Finding]:
        return sorted(
            (
                f
                for file_findings in findings_by_path.values()
                for f in file_findings
                if keep(f)
            ),
            key=lambda f: (f.path, f.line, f.col, f.rule),
        )

    findings = collect()

    baseline_path = Path(args.baseline or config.baseline or DEFAULT_BASELINE)
    if not baseline_path.is_absolute():
        baseline_path = root / baseline_path
    if args.update_baseline:
        write_baseline(baseline_path, findings)
        print(
            f"baseline updated: {len(findings)} finding(s) recorded in "
            f"{baseline_path}",
            file=sys.stderr,
        )
        return 0
    try:
        accepted = load_baseline(baseline_path)
    except ValueError as exc:
        print(f"repro.analysis: {exc}", file=sys.stderr)
        return 2
    new, baselined = partition(findings, accepted)

    # -- autofix loop (--fix / --diff): apply safe suggestions against
    # the in-memory sources, re-lint what changed, repeat until a round
    # applies nothing.  --diff renders the edits instead of writing.
    fix_mode = args.fix or args.diff
    writes_back = args.fix and not args.diff
    originals: dict[str, str] = {}
    fixed_paths: set[str] = set()
    applied_count = 0
    rounds = 0
    if fix_mode:
        pre_fix = (findings, new, baselined)
        abs_by_rel = {rel: abs_path for rel, abs_path in files}
        while rounds < MAX_ROUNDS:
            by_path: dict[str, list[Finding]] = {}
            for finding in fixable(new):
                if config.is_fix_excluded(finding.path):
                    continue
                if finding.path not in sources:
                    continue
                by_path.setdefault(finding.path, []).append(finding)
            if not by_path:
                break
            rounds += 1
            progressed = False
            for rel_path, path_findings in sorted(by_path.items()):
                outcome = apply_suggestions(
                    sources[rel_path],
                    [f.suggestion for f in path_findings],
                )
                if not outcome.changed:
                    continue
                progressed = True
                originals.setdefault(rel_path, sources[rel_path])
                sources[rel_path] = outcome.source
                fixed_paths.add(rel_path)
                applied_count += len(outcome.applied)
                file_findings = analyze_source(
                    outcome.source, rel_path, rules, project
                )
                findings_by_path[rel_path] = file_findings
                if cache is not None:
                    cache.store(
                        rel_path,
                        ResultCache.content_hash(
                            outcome.source.encode("utf-8")
                        ),
                        file_findings,
                    )
            if not progressed:
                break
            findings = collect()
            new, baselined = partition(findings, accepted)
        if writes_back:
            for rel_path in sorted(fixed_paths):
                abs_by_rel[rel_path].write_text(
                    sources[rel_path], encoding="utf-8"
                )
        else:
            # Preview mode leaves the tree untouched, so the findings,
            # counts, and exit code must describe the on-disk state.
            findings, new, baselined = pre_fix

    diffs = {
        rel_path: render_diff(rel_path, originals[rel_path], sources[rel_path])
        for rel_path in sorted(fixed_paths)
    }

    if args.fmt == "json":
        document = {
            "engine_version": ENGINE_VERSION,
            "counts": {
                "files": len(files),
                "findings": len(findings),
                "new": len(new),
                "baselined": len(baselined),
            },
            "findings": [finding.as_dict() for finding in new],
            "baselined": [finding.as_dict() for finding in baselined],
            "fixes": {
                "applied": applied_count,
                "files": sorted(fixed_paths),
                "rounds": rounds,
                "written": bool(writes_back and fixed_paths),
            },
        }
        if args.diff:
            document["diffs"] = diffs
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        if args.diff:
            for rel_path in sorted(diffs):
                sys.stdout.write(diffs[rel_path])
        for finding in new:
            print(finding.render())
        elapsed = time.perf_counter() - started
        if fix_mode:
            verb = "previewed" if args.diff else "applied"
            print(
                f"autofix: {applied_count} edit(s) {verb} in "
                f"{len(fixed_paths)} file(s) over {rounds} round(s)",
                file=sys.stderr,
            )
        print(
            f"{len(new)} new finding(s), {len(baselined)} baselined; "
            f"{len(files)} file(s) analysed ({cached_hits} cached) "
            f"in {elapsed:.2f}s",
            file=sys.stderr,
        )
    return 1 if new else 0
