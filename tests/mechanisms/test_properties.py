"""Seeded property tests over the mechanism contract (hypothesis).

The derandomized "repro" profile from ``tests/conftest.py`` applies:
example streams are derived from the test function, so two runs execute
identical examples.  Two families, per the contract in
``repro/mechanisms/base.py``:

* **lookup vs ground truth**: once the mechanism's staleness window has
  fully elapsed after a revocation, a covered certificate is never
  vouched for (and an uncovered one is honestly ``NO_INFO``); a clean
  chain is never flagged.
* **window semantics**: vulnerability windows are non-negative, clamped
  to the certificate's residual life, and monotone non-decreasing in
  the update interval (more frequent updates never hurt).
"""

from __future__ import annotations

import datetime
import math

import pytest
from hypothesis import given, strategies as st

from repro.mechanisms import mechanism_names
from repro.revocation.checker import CheckOutcome

MECHANISMS = mechanism_names()


@pytest.fixture(scope="module")
def suite(study):
    return {mechanism.name: mechanism for mechanism in study.mechanism_suite}


@pytest.fixture(scope="module")
def revoked_leaves(ecosystem, measurement_end):
    return [
        leaf
        for leaf in ecosystem.leaf_records()
        if leaf.revoked_at is not None and leaf.revoked_at <= measurement_end
    ]


@pytest.fixture(scope="module")
def clean_chain_leaves(ecosystem):
    revoked_intermediates = {
        record.intermediate_id
        for record in ecosystem.intermediates
        if record.revoked_at is not None
    }
    return [
        leaf
        for leaf in ecosystem.leaf_records()
        if leaf.revoked_at is None
        and leaf.intermediate_id not in revoked_intermediates
    ]


@pytest.mark.parametrize("name", MECHANISMS)
@given(index=st.integers(min_value=0, max_value=10**6),
       extra_days=st.integers(min_value=0, max_value=400))
def test_lookup_agrees_with_ground_truth_after_propagation(
    suite, revoked_leaves, name, index, extra_days
):
    mechanism = suite[name]
    leaf = revoked_leaves[index % len(revoked_leaves)]
    staleness = math.ceil(mechanism.update_model().staleness_window_days)
    at = leaf.revoked_at + datetime.timedelta(days=staleness + extra_days)
    outcome = mechanism.lookup(leaf, at)
    if mechanism.covers(leaf):
        assert outcome is not CheckOutcome.GOOD
    else:
        assert outcome is CheckOutcome.NO_INFO


@pytest.mark.parametrize("name", MECHANISMS)
@given(index=st.integers(min_value=0, max_value=10**6),
       day_offset=st.integers(min_value=0, max_value=1200))
def test_lookup_never_flags_a_clean_chain(
    suite, clean_chain_leaves, name, index, day_offset
):
    mechanism = suite[name]
    leaf = clean_chain_leaves[index % len(clean_chain_leaves)]
    at = leaf.not_before + datetime.timedelta(days=day_offset)
    assert mechanism.lookup(leaf, at) is not CheckOutcome.REVOKED


@pytest.mark.parametrize("name", MECHANISMS)
@given(
    index=st.integers(min_value=0, max_value=10**6),
    shorter=st.floats(min_value=0.0, max_value=60.0,
                      allow_nan=False, allow_infinity=False),
    stretch=st.floats(min_value=0.0, max_value=60.0,
                      allow_nan=False, allow_infinity=False),
)
def test_window_nonnegative_and_monotone_in_update_interval(
    suite, revoked_leaves, name, index, shorter, stretch
):
    """More frequent updates (a smaller interval) never widen the
    window; every window stays within [0, residual life]."""
    mechanism = suite[name]
    leaf = revoked_leaves[index % len(revoked_leaves)]
    longer = shorter + stretch
    narrow = mechanism.vulnerability_window_days(
        leaf, update_interval_days=shorter
    )
    wide = mechanism.vulnerability_window_days(
        leaf, update_interval_days=longer
    )
    residual = max(0.0, float((leaf.not_after - leaf.revoked_at).days))
    assert 0.0 <= narrow <= wide <= residual
