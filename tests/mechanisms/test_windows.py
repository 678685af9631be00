"""Vulnerability windows: the array form against a per-record oracle.

``RevocationMechanism.vulnerability_windows`` and the short-lived
``attack_window_study`` price windows as array arithmetic on the leaf
columns' day ordinals.  The oracles here price the same windows one
:class:`~repro.scan.records.LeafRecord` at a time with ``datetime``
arithmetic, the way the per-record code did, and every window must be
equal, not merely close.
"""

from __future__ import annotations

import datetime
import random

import numpy as np
import pytest

from repro.mechanisms import mechanism_names
from repro.mechanisms.shortlived import RevocationRegime, attack_window_study

MECHANISMS = mechanism_names()

#: update intervals priced besides each mechanism's own (None).
INTERVALS = (None, 0.0, 2.5, 30.0)


@pytest.fixture(scope="module")
def suite(study):
    return {mechanism.name: mechanism for mechanism in study.mechanism_suite}


@pytest.fixture(scope="module")
def revoked(ecosystem, measurement_end):
    """Every leaf revoked by the measurement end: rows and records."""
    rows = np.flatnonzero(ecosystem.leaves.revoked_mask(measurement_end))
    return rows, ecosystem.leaf_records(rows)


def oracle_window(mechanism, leaf, intermediates, interval) -> float:
    """One revoked leaf's window, from its record: the staleness window
    clamped to the residual life, except that OneCRL leaves a leaf under
    a never-revoked intermediate accepted until it expires."""
    model = mechanism.update_model()
    if interval is None:
        interval = model.update_interval_days
    residual = max(0.0, float((leaf.not_after - leaf.revoked_at).days))
    if mechanism.name == "onecrl" and intermediates[leaf.intermediate_id] is None:
        return residual
    return max(0.0, min(residual, interval + model.propagation_lag_days))


@pytest.mark.parametrize("interval", INTERVALS)
@pytest.mark.parametrize("name", MECHANISMS)
def test_windows_equal_the_per_record_oracle(suite, ecosystem, revoked, name, interval):
    mechanism = suite[name]
    rows, records = revoked
    intermediates = {
        record.intermediate_id: record.revoked_at for record in ecosystem.intermediates
    }
    assert len(rows) > 0
    windows = mechanism.vulnerability_windows(rows, update_interval_days=interval)
    assert windows.shape == (len(records),)
    assert windows.tolist() == [
        oracle_window(mechanism, leaf, intermediates, interval) for leaf in records
    ]


def test_onecrl_scope_rule_is_exercised(ecosystem, revoked):
    """Both sides of OneCRL's scope rule occur among the revoked leaves."""
    _, records = revoked
    healthy = {
        record.intermediate_id
        for record in ecosystem.intermediates
        if record.revoked_at is None
    }
    under_healthy = sum(leaf.intermediate_id in healthy for leaf in records)
    assert 0 < under_healthy < len(records)


@pytest.mark.parametrize("reaction", [3.0, 2.5, 0.75])
@pytest.mark.parametrize("sample", [300, 2000])
def test_attack_window_study_equals_the_per_record_oracle(ecosystem, reaction, sample):
    """The study's three regimes, priced per record: the compromise is
    ``revoked_at - timedelta(days=reaction)``, and the short-lived draws
    come after the sample, one per sampled leaf in sample order."""
    report = attack_window_study(ecosystem, admin_reaction_days=reaction, sample=sample)
    rng = random.Random(5)
    rows = np.flatnonzero(ecosystem.leaves.revoked_mask()).tolist()
    if sample < len(rows):
        rows = rng.sample(rows, sample)
    expected = {regime: [] for regime in RevocationRegime}
    for leaf in ecosystem.leaf_records(rows):
        compromise = leaf.revoked_at - datetime.timedelta(days=reaction)
        soft = max(0.0, float((leaf.not_after - compromise).days))
        expected[RevocationRegime.SOFT_FAIL].append(soft)
        expected[RevocationRegime.HARD_FAIL].append(
            max(0.0, min(soft, reaction + 4.0))
        )
        expected[RevocationRegime.SHORT_LIVED].append(
            max(0.0, min(soft, reaction + rng.uniform(0.0, 4)))
        )
    assert report.windows == expected
