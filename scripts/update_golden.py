#!/usr/bin/env python
"""Regenerate the golden report digests after an intentional change.

Usage (from the repo root)::

    PYTHONPATH=src python scripts/update_golden.py

Reruns every experiment at the pinned calibration (scale 0.002, seed
20151028, no faults) and rewrites ``tests/experiments/golden/``: the
per-experiment report digests, the per-mechanism sweep-block digests
(``mechanisms-*.json``, one digest per registered revocation mechanism),
the per-mechanism serving-block digests (``serving-*.json``, one
digest per mechanism's serving report; docs/SERVING.md), and the
browser traffic report over all 30 browsers x 244 cases
(``browser-traffic.json``; it does not depend on the calibration).
Commit the diff together with the change that caused it -- the point of
the golden files is that report-byte changes are always a reviewed diff
(tests/experiments/test_golden.py).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import api  # noqa: E402

GOLDEN_DIR = REPO_ROOT / "tests" / "experiments" / "golden"
GOLDEN_PATH = GOLDEN_DIR / "reports-scale0.002-seed20151028.json"
MECHANISMS_PATH = GOLDEN_DIR / "mechanisms-scale0.002-seed20151028.json"
SERVING_PATH = GOLDEN_DIR / "serving-scale0.002-seed20151028.json"
TRAFFIC_PATH = GOLDEN_DIR / "browser-traffic.json"
TRAFFIC_FIELDS = (
    "browser_label",
    "cases",
    "fetches",
    "bytes_downloaded",
    "revocations_caught",
)


def traffic_rows() -> list[list]:
    """The §6.2 traffic report, every browser x every case, as rows."""
    report = api.traffic_report(api.all_browsers(), api.generate_test_suite())
    return [[getattr(row, name) for name in TRAFFIC_FIELDS] for row in report]


def write_traffic() -> None:
    TRAFFIC_PATH.write_text(
        json.dumps(
            {"fields": list(TRAFFIC_FIELDS), "rows": traffic_rows()},
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {TRAFFIC_PATH.relative_to(REPO_ROOT)}")


def _write(path: Path, digests: dict[str, str]) -> list[str]:
    """Write one golden file; return the keys whose digests changed."""
    old = None
    if path.exists():
        old = json.loads(path.read_text(encoding="utf-8"))["digests"]
    payload = {
        "scale": 0.002,
        "seed": 20151028,
        "fault_profile": "none",
        "digests": digests,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    changed = (
        sorted(digests)
        if old is None
        else sorted(
            set(digests) ^ set(old)
            | {key for key in digests if old.get(key) != digests[key]}
        )
    )
    print(f"wrote {path.relative_to(REPO_ROOT)}")
    print(
        f"{len(changed)} digest(s) changed: {', '.join(changed) or '(none)'}"
    )
    return changed


def main() -> int:
    _write(
        GOLDEN_PATH,
        api.study.golden_digests(
            scale=0.002, seed=20151028, fault_profile="none"
        ),
    )
    _write(
        MECHANISMS_PATH,
        api.study.mechanism_digests(
            scale=0.002, seed=20151028, fault_profile="none"
        ),
    )
    _write(
        SERVING_PATH,
        api.serve.serving_digests(
            scale=0.002, seed=20151028, fault_profile="none"
        ),
    )
    write_traffic()
    return 0


if __name__ == "__main__":
    sys.exit(main())
