"""Golden test: the exact ``--format json`` document, byte for byte.

Downstream tooling (the CI artifact, editor integrations) parses this
document, so its shape -- key set, key ordering under ``sort_keys``,
the nested ``suggestion`` object -- is a contract.  Any intentional
schema change must update this golden alongside an ENGINE_VERSION
review.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.cli import main

PYPROJECT = """\
[tool.repro.analysis]
paths = ["src"]
"""

SOURCE = """\
import json


def emit(names):
    uniq = set(names)
    return json.dumps(list(uniq))
"""

GOLDEN = {
    "baselined": [],
    "counts": {
        "baselined": 0,
        "files": 1,
        "findings": 1,
        "new": 1,
    },
    "engine_version": "8",
    "findings": [
        {
            "col": 27,
            "fingerprint": "e78ec113e830c2b9",
            "line": 6,
            "message": (
                "set(...) constructed at line 5 flows into emit sink "
                "json.dumps(...) with no defined order; wrap it in "
                "sorted(...)"
            ),
            "path": "src/mod.py",
            "rule": "RPR003",
            "suggestion": {
                "col": 27,
                "description": (
                    "wrap the unordered value in sorted(...) at the "
                    "emit site"
                ),
                "end_col": 31,
                "end_line": 6,
                "line": 6,
                "replacement": "sorted(uniq)",
                "safety": "safe",
            },
        }
    ],
    "fixes": {
        "applied": 0,
        "files": [],
        "rounds": 0,
        "written": False,
    },
}


@pytest.fixture
def project(tmp_path, monkeypatch):
    (tmp_path / "pyproject.toml").write_text(PYPROJECT)
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text(SOURCE)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_json_document_matches_golden_exactly(project, capsys):
    assert main(["--no-cache", "--format", "json"]) == 1
    out = capsys.readouterr().out
    # Byte-exact: pins both the content and the sort_keys rendering.
    assert out == json.dumps(GOLDEN, indent=2, sort_keys=True) + "\n"


def test_clean_tree_document_shape(project, capsys):
    (project / "src" / "mod.py").write_text("x = 1\n")
    assert main(["--no-cache", "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert sorted(document) == [
        "baselined",
        "counts",
        "engine_version",
        "findings",
        "fixes",
    ]
    assert document["findings"] == []
    assert document["counts"] == {
        "baselined": 0,
        "files": 1,
        "findings": 0,
        "new": 0,
    }
