"""End-to-end CLI behaviour: exit codes, formats, baseline, cache."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.cli import main
from repro.analysis.rules import ALL_RULES

PYPROJECT = """\
[tool.repro.analysis]
paths = ["src"]
"""

CLEAN = "def f(x):\n    return x + 1\n"
VIOLATION = "import time\n\n\ndef f():\n    return time.time()\n"


@pytest.fixture
def project(tmp_path, monkeypatch):
    (tmp_path / "pyproject.toml").write_text(PYPROJECT)
    src = tmp_path / "src"
    src.mkdir()
    (src / "clean.py").write_text(CLEAN)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_clean_tree_exits_zero(project, capsys):
    assert main([]) == 0
    out, err = capsys.readouterr()
    assert out == ""
    assert "0 new finding(s)" in err


def test_findings_exit_one_with_locations(project, capsys):
    (project / "src" / "bad.py").write_text(VIOLATION)
    assert main([]) == 1
    out, _ = capsys.readouterr()
    assert "RPR001" in out
    assert "src/bad.py:5:" in out


def test_json_format_is_machine_readable(project, capsys):
    (project / "src" / "bad.py").write_text(VIOLATION)
    assert main(["--format", "json"]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["counts"]["new"] == 1
    (finding,) = document["findings"]
    assert finding["rule"] == "RPR001"
    assert finding["path"] == "src/bad.py"
    assert finding["fingerprint"]


def test_update_baseline_then_green(project, capsys):
    (project / "src" / "bad.py").write_text(VIOLATION)
    assert main(["--update-baseline"]) == 0
    assert main([]) == 0
    _, err = capsys.readouterr()
    assert "1 baselined" in err
    # A *new* violation still fails even with the old one baselined.
    (project / "src" / "worse.py").write_text(VIOLATION)
    assert main([]) == 1


def test_unknown_path_is_usage_error(project, capsys):
    assert main(["does-not-exist"]) == 2
    assert "no such path" in capsys.readouterr().err


def test_unknown_rule_code_is_usage_error(project, capsys):
    assert main(["--select", "RPR999"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_corrupt_baseline_is_usage_error(project, capsys):
    (project / ".repro-analysis-baseline.json").write_text("{oops")
    assert main([]) == 2


def test_select_and_ignore_filter_rules(project):
    (project / "src" / "bad.py").write_text(VIOLATION)
    assert main(["--select", "RPR006"]) == 0
    assert main(["--select", "RPR001"]) == 1
    assert main(["--ignore", "RPR001"]) == 0


def test_syntax_error_fails_even_under_select(project, capsys):
    (project / "src" / "broken.py").write_text("def broken(:\n")
    assert main(["--select", "RPR006"]) == 1
    assert "RPR000" in capsys.readouterr().out


def test_cache_hits_and_invalidation(project, capsys):
    bad = project / "src" / "bad.py"
    bad.write_text(VIOLATION)
    assert main([]) == 1
    capsys.readouterr()
    assert main([]) == 1
    _, err = capsys.readouterr()
    assert "(2 cached)" in err
    # Editing the file invalidates its entry and re-analyses it.
    bad.write_text(CLEAN)
    assert main([]) == 0
    _, err = capsys.readouterr()
    assert "(1 cached)" in err


def test_no_cache_leaves_no_directory(project):
    assert main(["--no-cache"]) == 0
    assert not (project / ".repro-analysis-cache").exists()


def test_list_rules_prints_catalogue(project, capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for cls in ALL_RULES:
        assert cls.code in out


def test_repository_tree_has_no_findings(monkeypatch, capsys):
    """The gate CI runs: the paths pyproject.toml configures, linted
    against the repository's baseline, which is empty, yield nothing."""
    root = Path(__file__).resolve().parents[2]
    baseline = json.loads((root / ".repro-analysis-baseline.json").read_text())
    assert baseline["fingerprints"] == {}
    monkeypatch.chdir(root)
    code = main(["--no-cache"])
    out, err = capsys.readouterr()
    assert code == 0, out
    assert "0 new finding(s), 0 baselined" in err
