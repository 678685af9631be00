"""The harness builds each case's PKI once and shares it across browsers.

Reuse is only sound if a run against the cached PKI sees exactly what it
would see against a freshly built one: the same outcome (bytes and
fetch counts included) and the same served CRL/OCSP bytes, CRL numbers
included, from cold client caches.  These tests pin that for every case
family and every browser policy class: all 244 cases for one browser of
each class, plus all 30 browsers on every 7th case.
"""

from __future__ import annotations

import pytest

from repro.browsers.registry import all_browsers
from repro.browsers.testsuite import BrowserTestHarness, generate_test_suite

CASES = generate_test_suite()
BROWSERS = all_browsers()
#: one browser per policy class (Chrome, Firefox, ..., Mobile IE).
CLASS_REPS = list({type(browser): browser for browser in BROWSERS}.values())
SLICE = CASES[::7]


def _runs(reverse: bool = False):
    """(browser, case) pairs: every case for the class representatives,
    every 7th case for the other browsers, browser-major."""
    order = (lambda seq: seq[::-1]) if reverse else list
    return [
        (browser, case)
        for browser in order(BROWSERS)
        for case in order(CASES if browser in CLASS_REPS else SLICE)
    ]


class RecordingHarness(BrowserTestHarness):
    """Counts PKI builds and records every response body a run receives."""

    def __init__(self) -> None:
        super().__init__()
        self.builds: list[str] = []
        self.bodies: list[bytes] = []

    def build_pki(self, case):
        self.builds.append(case.test_id)
        pki = super().build_pki(case)
        request = pki.network.request

        def recording(http_request, at):
            response, stats = request(http_request, at)
            self.bodies.append(response.body)
            return response, stats

        pki.network.request = recording
        return pki

    def observe(self, browser, case):
        """(outcome, served bodies) of one run."""
        self.bodies.clear()
        outcome = self.run_case(browser, case)
        return outcome, tuple(self.bodies)

    def observe_all(self, runs) -> dict:
        return {
            (browser.label, case.test_id): self.observe(browser, case)
            for browser, case in runs
        }


@pytest.fixture(scope="module")
def forward():
    harness = RecordingHarness()
    return harness, harness.observe_all(_runs())


def test_selection_covers_every_family_and_policy_class():
    families = {case.family for case in CASES}
    assert {case.family for case in SLICE} == families
    assert {type(browser) for browser in CLASS_REPS} == {
        type(browser) for browser in BROWSERS
    }
    assert len(CLASS_REPS) == 9


def test_builds_each_case_once(forward):
    harness, _ = forward
    assert sorted(harness.builds) == sorted(case.test_id for case in CASES)


def test_cached_pki_matches_a_fresh_one(forward):
    _, observed = forward
    for browser in BROWSERS:
        for case in SLICE:
            fresh = RecordingHarness()
            assert observed[(browser.label, case.test_id)] == fresh.observe(
                browser, case
            ), (browser.label, case.describe())
            assert fresh.builds == [case.test_id]


def test_reverse_order_gives_identical_outcomes(forward):
    # Leaks between runs (CRL numbers, staple cache, breaker, negative
    # cache) would make a run depend on which browsers ran first.
    _, observed = forward
    harness = RecordingHarness()
    assert harness.observe_all(_runs(reverse=True)) == observed
    assert len(harness.builds) == len(CASES)
