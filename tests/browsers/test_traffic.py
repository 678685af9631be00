"""Network-trace capture and per-browser traffic report tests."""

from __future__ import annotations

import pytest

from repro.browsers.desktop import (
    Chrome,
    Firefox,
    InternetExplorer,
    Opera12,
    Opera31,
    Safari,
)
from repro.browsers.mobile import AndroidBrowser, MobileSafari
from repro.browsers.strict import StrictClient
from repro.browsers.testsuite import BrowserTestHarness, generate_test_suite
from repro.browsers.traffic import traffic_report


@pytest.fixture(scope="module")
def sample_cases():
    suite = generate_test_suite()
    # A representative slice keeps this fast: every family, both protocols.
    return [c for i, c in enumerate(suite) if i % 7 == 0]


@pytest.fixture(scope="module")
def report(sample_cases):
    browsers = [
        InternetExplorer(version="11.0"),
        Safari(),
        Chrome(os="osx"),
        MobileSafari("8"),
    ]
    return traffic_report(browsers, sample_cases)


class TestTraceCapture:
    def test_checking_browser_generates_traffic(self, sample_cases):
        harness = BrowserTestHarness()
        outcome = harness.run_case(InternetExplorer(version="11.0"), sample_cases[5])
        assert outcome.revocation_fetches >= 0  # trace fields populated
        total = sum(
            harness.run_case(InternetExplorer(version="11.0"), c).bytes_downloaded
            for c in sample_cases[:8]
        )
        assert total > 0

    def test_mobile_browser_generates_none(self, sample_cases):
        harness = BrowserTestHarness()
        for case in sample_cases[:8]:
            outcome = harness.run_case(MobileSafari("8"), case)
            assert outcome.bytes_downloaded == 0
            assert outcome.revocation_fetches == 0


class TestTrafficReport:
    def test_ordering_checkers_pay_most(self, report):
        by_label = {row.browser_label: row for row in report}
        ie = next(v for k, v in by_label.items() if k.startswith("IE"))
        mobile = next(v for k, v in by_label.items() if "Mobile" in k)
        chrome = next(v for k, v in by_label.items() if k.startswith("Chrome"))
        assert ie.bytes_downloaded > chrome.bytes_downloaded
        assert mobile.bytes_downloaded == 0

    def test_traffic_buys_detections(self, report):
        for row in report:
            if row.bytes_downloaded == 0:
                assert row.revocations_caught == 0 or row.browser_label.startswith(
                    "Chrome"
                )

    def test_bytes_per_catch_finite_for_checkers(self, report):
        ie = next(row for row in report if row.browser_label.startswith("IE"))
        assert 0 < ie.bytes_per_catch < float("inf")

    def test_report_covers_all_browsers(self, report, sample_cases):
        assert len(report) == 4
        assert all(row.cases == len(sample_cases) for row in report)

    def test_strict_client_catches_most(self):
        """The §6 trade-off at both ends, over every fourth suite case:
        full checking costs real bandwidth and catches the most
        revocations; zero traffic catches none."""
        browsers = [
            StrictClient(os="linux"),
            InternetExplorer(version="11.0"),
            Safari(),
            Opera31(os="windows"),
            Opera12(os="osx"),
            Firefox(os="linux"),
            Chrome(os="windows"),
            Chrome(os="osx"),
            AndroidBrowser("Chrome", "5.1"),
            MobileSafari("8"),
        ]
        report = traffic_report(browsers, generate_test_suite()[::4])
        strict = next(row for row in report if "Strict" in row.browser_label)
        mobile = next(row for row in report if "Mobile" in row.browser_label)
        assert strict.revocations_caught == max(row.revocations_caught for row in report)
        assert strict.bytes_downloaded > 0
        assert mobile.bytes_downloaded == 0 and mobile.revocations_caught == 0
