"""Example scripts must keep running against the public API."""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_quickstart_runs(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["quickstart.py", "0.0005"])
        _load("quickstart").main()
        out = capsys.readouterr().out
        assert "Finding 1" in out and "Finding 4" in out
        assert "fig2" in out

    def test_bandwidth_planner_runs(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["crl_bandwidth_planner.py", "2000", "0.08"])
        _load("crl_bandwidth_planner").main()
        out = capsys.readouterr().out
        assert "single CRL" in out
        assert "OCSP staple" in out

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("crlset_vs_bloom", "what would have shipped to every Chrome user"),
            ("heartbleed_retrospective", "advertised certificates"),
            ("lifecycle_explorer", "Figure 1 shapes across"),
        ],
    )
    def test_leaf_set_examples_run(self, name, expected, capsys, monkeypatch):
        """The examples that read the Leaf Set, at their own scale."""
        monkeypatch.setattr(sys, "argv", [f"{name}.py"])
        _load(name).main()
        assert expected in capsys.readouterr().out

    def test_readme_quickstart_runs(self, capsys):
        """README's Quickstart code block, executed as written."""
        readme = (ROOT / "README.md").read_text()
        section = readme.split("## Quickstart", 1)[1]
        code = section.split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(code, "README.md", "exec"), {})
        out = capsys.readouterr().out
        fraction = float(out.splitlines()[0])
        assert 0.05 <= fraction <= 0.13
        assert "fig2" in out and "table2" in out

    def test_all_examples_have_mains(self):
        scripts = sorted(EXAMPLES.glob("*.py"))
        assert len(scripts) >= 3  # deliverable floor; we ship six
        for script in scripts:
            text = script.read_text()
            assert "def main()" in text, script.name
            assert '__name__ == "__main__"' in text, script.name
