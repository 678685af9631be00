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
It also rewrites ``tests/scan/golden/corpus-seed20151028.json``: the
corpus digest at three scales and, at the largest, the render digests
of the 12 corpus experiments and a digest of the CRLSet history.
Commit the diff together with the change that caused it -- the point of
the golden files is that report-byte changes are always a reviewed diff
(tests/experiments/test_golden.py, tests/scan/test_corpus_golden.py).
"""

from __future__ import annotations

import datetime
import hashlib
import json
import sys
import tempfile
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
CORPUS_PATH = REPO_ROOT / "tests" / "scan" / "golden" / "corpus-seed20151028.json"
CORPUS_SEED = 20151028
#: every scale pins the corpus digest; the last also pins the corpus
#: experiments and the CRLSet history.
CORPUS_SCALES = (0.0005, 0.002, 0.01)
#: the experiments that read only the corpus (no browsers, no serving).
CORPUS_EXPERIMENTS = (
    "section3",
    "section42",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "table1",
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


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _plain(value) -> str:
    """JSON form of the dates and parent key hashes in a CRLSet history."""
    if isinstance(value, bytes):
        return value.hex()
    return value.isoformat()


def crlset_lifecycles(entries) -> list[tuple]:
    """Every entry's lifecycle in a history's lifecycle columns, in entry
    order: (parent, serial, crl_url, revoked_at, cert_not_after,
    eligible, in_partial_subset, first_appeared, removed_at), with day
    ordinals as dates and 0 as None."""

    def dates(column) -> list[datetime.date | None]:
        return [
            datetime.date.fromordinal(day) if day else None for day in column.tolist()
        ]

    crls = entries.crl.tolist()
    return list(
        zip(
            [entries.parents[crl] for crl in crls],
            entries.columns.serial_numbers(),
            [entries.urls[crl] for crl in crls],
            dates(entries.columns.revoked),
            dates(entries.columns.expiry),
            entries.eligible.tolist(),
            entries.in_partial_subset.tolist(),
            dates(entries.first_appeared),
            dates(entries.removed_at),
        )
    )


def crlset_history_digest(history) -> str:
    """sha256 over a CRLSet history: every day's count, additions and
    removals, every entry's lifecycle, and the covered CRLs, dropped
    CRLs and parents."""
    document = {
        "days": [
            [day, count, history.daily_additions[day], history.daily_removals[day]]
            for day, count in history.daily_entry_counts.items()
        ],
        "entries": crlset_lifecycles(history.entries),
        "covered_urls": sorted(history.covered_urls),
        "dropped_urls": sorted(history.dropped_urls),
        "parents_ever": sorted(history.parents_ever),
    }
    return _sha256(json.dumps(document, default=_plain, sort_keys=True))


def corpus_scale_golden(scale: float, with_reports: bool) -> dict[str, object]:
    """The stored corpus digest at ``scale``; ``with_reports`` adds the
    corpus experiments' render digests and the CRLSet history digest,
    both computed on a study that reloads the store just written."""
    with tempfile.TemporaryDirectory() as directory:
        info = api.corpus.build(directory, scale=scale, seed=CORPUS_SEED)
        golden: dict[str, object] = {"corpus_digest": info["corpus_digest"]}
        if with_reports:
            study = api.study.new_study(
                scale=scale,
                seed=CORPUS_SEED,
                cache_dir=directory,
                fault_profile="none",
            )
            golden["reports"] = {
                eid: _sha256(api.study.run_one(eid, study).render())
                for eid in CORPUS_EXPERIMENTS
            }
            golden["crlset_history"] = crlset_history_digest(study.crlset_history)
    return golden


def corpus_golden() -> dict[str, object]:
    """The whole corpus golden document."""
    return {
        "seed": CORPUS_SEED,
        "fault_profile": "none",
        "scales": {
            repr(scale): corpus_scale_golden(
                scale, with_reports=scale == CORPUS_SCALES[-1]
            )
            for scale in CORPUS_SCALES
        },
    }


def write_corpus() -> None:
    CORPUS_PATH.parent.mkdir(parents=True, exist_ok=True)
    CORPUS_PATH.write_text(
        json.dumps(corpus_golden(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {CORPUS_PATH.relative_to(REPO_ROOT)}")


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
    write_corpus()
    return 0


if __name__ == "__main__":
    sys.exit(main())
