"""A harness runs each case once per browser policy, not once per browser.

``BrowserTestHarness.run_suite`` keeps one outcome per (policy, case),
where a policy (:func:`repro.browsers.policy.policy_of`) is every hook's
answer over its whole input domain plus the engine methods the model's
class resolves.  These tests pin that the memo changes no outcome, that
any difference in a policy -- one hook answer for one input, or an
overridden engine method -- shares nothing, and that the memo lives and
dies with its harness.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.browsers.desktop import Firefox
from repro.browsers.policy import Position, UnavailableAction, policy_of
from repro.browsers.registry import all_browsers
from repro.browsers.table2 import compute_table2
from repro.browsers.testsuite import (
    BrowserTestHarness,
    TestOutcome,
    generate_test_suite,
)

CASES = generate_test_suite()
BROWSERS = all_browsers()
#: distinct policies among the 30 models: Chrome on OS X and Linux
#: agree, as do Opera 31 on Linux and Windows with IE 7-9, and the four
#: Android models; iOS and Windows Phone check nothing alike.
POLICIES = 11


class CountingHarness(BrowserTestHarness):
    """Records every real run."""

    def __init__(self) -> None:
        super().__init__()
        self.runs: list[tuple[str, str]] = []

    def run_case(self, browser, case):
        self.runs.append((browser.label, case.test_id))
        return super().run_case(browser, case)


class OneAnswerApart(Firefox):
    """Firefox but for one ``on_unavailable`` input that no case reaches
    with an answer that matters (a DV int2+ without an OCSP responder)."""

    def on_unavailable(
        self, position, protocol, has_crl, has_ocsp, is_ev, has_intermediates
    ):
        if (position, protocol, has_crl, has_ocsp, is_ev, has_intermediates) == (
            Position.INT2PLUS, "crl", True, False, False, True,
        ):
            return UnavailableAction.WARN
        return super().on_unavailable(
            position, protocol, has_crl, has_ocsp, is_ev, has_intermediates
        )


class OwnValidate(Firefox):
    """Firefox with the engine's ``validate`` overridden, unchanged."""

    def validate(self, ctx):
        return super().validate(ctx)


@pytest.fixture(scope="module")
def memoised():
    harness = CountingHarness()
    suites = {
        browser.label: harness.run_suite(browser, CASES) for browser in BROWSERS
    }
    return harness, suites


def test_the_models_have_eleven_policies():
    assert len({policy_of(browser) for browser in BROWSERS}) == POLICIES
    assert len({browser.label for browser in BROWSERS}) == len(BROWSERS)


def test_run_suite_equals_one_real_run_per_browser_and_case(memoised):
    harness, suites = memoised
    assert len(harness.runs) == POLICIES * len(CASES)
    fresh = BrowserTestHarness()
    fields = [field.name for field in dataclasses.fields(TestOutcome)]
    for browser in BROWSERS:
        outcomes = suites[browser.label]
        assert [outcome.case for outcome in outcomes] == CASES
        for case, outcome in zip(CASES, outcomes):
            expected = fresh.run_case(browser, case)
            for name in fields:
                assert getattr(outcome, name) == getattr(expected, name), (
                    browser.label, case.describe(), name,
                )
    # The oracle is not vacuous: labels are the browsers' own, and the
    # runs fetched and downloaded revocation information.
    assert all(
        outcome.browser_label == label
        for label, outcomes in suites.items()
        for outcome in outcomes
    )
    assert sum(o.revocation_fetches for s in suites.values() for o in s) > 0
    assert sum(o.bytes_downloaded for s in suites.values() for o in s) > 0


@pytest.mark.parametrize("variant", [OneAnswerApart, OwnValidate])
def test_a_different_policy_shares_nothing(variant):
    base, other = Firefox(os="linux"), variant(os="linux")
    assert policy_of(base) != policy_of(other)
    harness = CountingHarness()
    expected = harness.run_suite(base, CASES)
    assert len(harness.runs) == len(CASES)
    outcomes = harness.run_suite(other, CASES)
    assert harness.runs[len(CASES):] == [
        (other.label, case.test_id) for case in CASES
    ]
    # Neither difference is one any case observes.
    assert outcomes == expected


def test_each_harness_makes_its_own_runs():
    first, second = CountingHarness(), CountingHarness()
    assert compute_table2(harness=first) == compute_table2(harness=second)
    assert len(first.runs) == len(second.runs) == POLICIES * len(CASES)
    assert len(set(first.runs)) == len(first.runs)
