"""Golden pin for the §6.2 browser traffic report.

The report sums the revocation bytes every browser downloads over the
whole 244-case suite, so it changes whenever a certificate, CRL or OCSP
response changes size.  Test-PKI names feed those sizes; these tests pin
the exact bytes for all 30 browsers and check they do not depend on the
process that computes them (hash seed, object addresses): the full
report is computed in two fresh interpreters with different
``PYTHONHASHSEED`` values.

When a change is intentional, regenerate with::

    PYTHONPATH=src python scripts/update_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.browsers.registry import table2_columns
from repro.browsers.testsuite import generate_test_suite
from repro.browsers.traffic import traffic_report

ROOT = Path(__file__).parents[2]
GOLDEN_PATH = ROOT / "tests" / "experiments" / "golden" / "browser-traffic.json"

FIELDS = [
    "browser_label",
    "cases",
    "fetches",
    "bytes_downloaded",
    "revocations_caught",
]

# Run in a fresh interpreter: prints the report rows as JSON.
_ROWS_SCRIPT = f"""
import json, sys
sys.path.insert(0, {str(ROOT)!r})
from tests.browsers.test_traffic_golden import report_rows
print(json.dumps(report_rows()))
"""


def report_rows() -> list[list]:
    """The traffic report over all 30 browsers x all 244 cases."""
    browsers = [model for _, models in table2_columns() for model in models]
    assert len(browsers) == 30
    report = traffic_report(browsers, generate_test_suite())
    return [[getattr(row, name) for name in FIELDS] for row in report]


@pytest.fixture(scope="module")
def rows_by_hash_seed() -> dict[str, list[list]]:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    procs = {
        hash_seed: subprocess.Popen(
            [sys.executable, "-c", _ROWS_SCRIPT],
            env={**env, "PYTHONHASHSEED": hash_seed},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for hash_seed in ("1", "2")
    }
    rows = {}
    for hash_seed, proc in procs.items():
        out, err = proc.communicate(timeout=600)
        assert proc.returncode == 0, err
        rows[hash_seed] = json.loads(out)
    return rows


def test_full_report_matches_golden(rows_by_hash_seed):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert golden["fields"] == FIELDS
    assert rows_by_hash_seed["1"] == golden["rows"]


def test_report_is_identical_across_processes(rows_by_hash_seed):
    digests = {
        hash_seed: hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        for hash_seed, rows in rows_by_hash_seed.items()
    }
    assert digests["1"] == digests["2"]
