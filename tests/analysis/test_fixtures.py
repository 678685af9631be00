"""Meta-check: every shipped rule still fires on its positive fixture.

This is the guard against rules rotting into no-ops: a rule whose
positive fixture stops producing a finding fails CI, and a rule without
fixtures fails CI.  Negative fixtures must be completely clean so the
catalogue never drifts toward false positives either.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.engine import analyze_source
from repro.analysis.findings import Finding
from repro.analysis.project import build_project_context
from repro.analysis.rules import ALL_RULES, default_rules

FIXTURES = Path(__file__).parent / "fixtures"
RULE_CODES = [cls.code for cls in ALL_RULES]


def _fixture_files(code: str, polarity: str) -> list[tuple[str, Path]]:
    """(rel_path, abs_path) pairs for one rule's fixture, either a single
    module or a directory tree (cross-file rules like RPR007)."""
    stem = f"{code.lower()}_{polarity}"
    single = FIXTURES / f"{stem}.py"
    if single.is_file():
        return [(f"repro/fixtures/{single.name}", single)]
    tree = FIXTURES / stem
    assert tree.is_dir(), f"no fixture for {code} {polarity}"
    return sorted(
        (path.relative_to(tree).as_posix(), path)
        for path in tree.rglob("*.py")
    )


def _analyze_fixture(code: str, polarity: str) -> list[Finding]:
    files = _fixture_files(code, polarity)
    project = build_project_context(files)
    rules = default_rules()
    findings: list[Finding] = []
    for rel_path, path in files:
        findings.extend(
            analyze_source(
                path.read_text(encoding="utf-8"), rel_path, rules, project
            )
        )
    return findings


@pytest.mark.parametrize("code", RULE_CODES)
def test_positive_fixture_fires(code):
    findings = _analyze_fixture(code, "pos")
    assert any(f.rule == code for f in findings), (
        f"{code} no longer fires on its positive fixture -- the rule "
        f"has rotted into a no-op: {[f.render() for f in findings]}"
    )


@pytest.mark.parametrize("code", RULE_CODES)
def test_negative_fixture_clean(code):
    findings = _analyze_fixture(code, "neg")
    assert findings == [], [f.render() for f in findings]


def test_every_rule_has_both_fixtures():
    for code in RULE_CODES:
        for polarity in ("pos", "neg"):
            stem = f"{code.lower()}_{polarity}"
            assert (FIXTURES / f"{stem}.py").is_file() or (
                FIXTURES / stem
            ).is_dir(), f"missing fixture {stem}"


def test_rule_codes_are_unique_and_sequential():
    assert len(set(RULE_CODES)) == len(RULE_CODES)
    assert RULE_CODES == sorted(RULE_CODES)
