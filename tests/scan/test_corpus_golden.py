"""Golden pin for the generated corpus at seed 20151028.

The corpus digest covers every generated column (leaf lifecycles,
observed and synthetic CRL entries, per-CRL counts, hidden-population
targets, Alexa ranks), so any change to a generator draw, an encoder or
a decoder shows up here.  At the largest pinned scale the golden also
holds the render digests of the 12 corpus experiments and a digest of
the CRLSet history, both computed on a study that reloads the store.

The golden is computed by the same functions that write it.  When a
change is intentional, regenerate with::

    PYTHONPATH=src python scripts/update_golden.py
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "update_golden", ROOT / "scripts" / "update_golden.py"
)
update_golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(update_golden)

GOLDEN = json.loads(update_golden.CORPUS_PATH.read_text(encoding="utf-8"))
SCALES = [repr(scale) for scale in update_golden.CORPUS_SCALES]
REGENERATE = (
    "if intentional, regenerate with: PYTHONPATH=src python scripts/update_golden.py"
)


@pytest.fixture(scope="module")
def computed() -> dict:
    return update_golden.corpus_golden()


def test_golden_pins_the_calibration():
    assert GOLDEN["seed"] == 20151028
    assert GOLDEN["fault_profile"] == "none"
    assert sorted(GOLDEN["scales"]) == sorted(SCALES)
    largest = GOLDEN["scales"][SCALES[-1]]
    assert sorted(largest["reports"]) == sorted(update_golden.CORPUS_EXPERIMENTS)


@pytest.mark.parametrize("scale", SCALES)
def test_corpus_digest_matches_golden(computed, scale):
    assert (
        computed["scales"][scale]["corpus_digest"]
        == GOLDEN["scales"][scale]["corpus_digest"]
    ), f"the corpus at scale {scale} changed; {REGENERATE}"


@pytest.mark.parametrize("experiment_id", update_golden.CORPUS_EXPERIMENTS)
def test_corpus_report_matches_golden(computed, experiment_id):
    scale = SCALES[-1]
    assert (
        computed["scales"][scale]["reports"][experiment_id]
        == GOLDEN["scales"][scale]["reports"][experiment_id]
    ), f"{experiment_id}'s report at scale {scale} changed; {REGENERATE}"


def test_crlset_history_matches_golden(computed):
    scale = SCALES[-1]
    assert (
        computed["scales"][scale]["crlset_history"]
        == GOLDEN["scales"][scale]["crlset_history"]
    ), f"the CRLSet history at scale {scale} changed; {REGENERATE}"
