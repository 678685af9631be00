"""Before/after equivalence for the staleness-math hoist.

The short-lived attack-window study (now
``repro.mechanisms.shortlived.attack_window_study``) and the OneCRL
scope override used to carry private copies of the
staleness/residual/clamp arithmetic; the shared helpers now live in
``repro.mechanisms.base``.  The digest below was computed from the
*pre-hoist* implementation (elementwise equality old-vs-new was verified
over all 844 revoked samples in all three regimes at the pinned
calibration; values were ints where non-negative, so the digest
normalises everything to float) -- the hoisted code must keep
reproducing it bit-for-bit.

No experiment calls ``attack_window_study``, so no report golden covers
its output: this digest is its only byte-level pin.
"""

from __future__ import annotations

import datetime
import hashlib
import json

import numpy as np
import pytest

from repro.mechanisms.base import (
    attack_window_days,
    residual_life_days,
    staleness_window_days,
)
from repro.mechanisms.shortlived import RevocationRegime, attack_window_study

#: sha256 over {regime.name: [float(window), ...]} (sort_keys json) of
#: attack_window_study's defaults at scale 0.002 / seed 20151028 --
#: pinned from the pre-hoist implementation, and re-pinned with the
#: corpus when generation moved to column draws.
PRE_HOIST_DIGEST = (
    "1304711c728ec7aca4863ba59e36837676666d71c2e9f902e97a099386d92c36"
)

#: attack_window_study defaults the digest was pinned against.
ADMIN_REACTION_DAYS = 3.0
PROPAGATION_DAYS = 4.0


@pytest.fixture(scope="module")
def report(ecosystem):
    return attack_window_study(ecosystem)


def test_hoisted_math_matches_the_pre_hoist_digest(report):
    payload = {
        regime.name: [float(window) for window in report.windows[regime]]
        for regime in RevocationRegime
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()
    assert digest == PRE_HOIST_DIGEST, (
        "attack_window_study's output changed across the staleness-math "
        "hoist; the refactor was supposed to be behaviour-preserving"
    )


def test_regime_windows_keep_their_structure(report):
    """The invariants the old inline arithmetic guaranteed, elementwise."""
    soft = report.windows[RevocationRegime.SOFT_FAIL]
    hard = report.windows[RevocationRegime.HARD_FAIL]
    short = report.windows[RevocationRegime.SHORT_LIVED]
    assert len(soft) == len(hard) == len(short) > 0
    exposure = ADMIN_REACTION_DAYS + PROPAGATION_DAYS
    for s, h, sl in zip(soft, hard, short):
        assert s >= 0.0 and h >= 0.0 and sl >= 0.0
        assert h <= s  # a checking client never does worse than soft-fail
        assert h == pytest.approx(attack_window_days(s, exposure))
        assert sl <= s  # not renewing never extends the attacker's run


def test_shared_helpers_reproduce_the_inlined_formulas():
    assert staleness_window_days(3.0, 4.0) == pytest.approx(7.0)
    assert staleness_window_days(1.5) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        staleness_window_days(-0.1)
    with pytest.raises(ValueError):
        staleness_window_days(1.0, -2.0)

    # Day ordinals, one at a time and as arrays.
    not_after = datetime.date(2015, 6, 1).toordinal()
    may, june, july = (
        datetime.date(2015, 5, 1).toordinal(),
        datetime.date(2015, 6, 1).toordinal(),
        datetime.date(2015, 7, 1).toordinal(),
    )
    assert residual_life_days(not_after, may) == pytest.approx(31.0)
    assert residual_life_days(not_after, june) == pytest.approx(0.0)
    # Already expired at the compromise date: clamped, never negative.
    assert residual_life_days(not_after, july) == pytest.approx(0.0)
    assert isinstance(residual_life_days(not_after, may), float)
    residual = residual_life_days(
        np.full(3, not_after, np.int32), np.array([may, june, july], np.int32)
    )
    assert residual.dtype == np.float64
    assert residual.tolist() == [31.0, 0.0, 0.0]

    assert attack_window_days(10.0, 7.0) == pytest.approx(7.0)  # exposure-bound
    assert attack_window_days(3.0, 7.0) == pytest.approx(3.0)  # life-bound
    assert attack_window_days(-5.0, 7.0) == pytest.approx(0.0)  # never negative
    assert attack_window_days(5.0, -1.0) == pytest.approx(0.0)
    assert attack_window_days(np.array([10.0, 3.0, -5.0]), 7.0).tolist() == [
        7.0,
        3.0,
        0.0,
    ]
