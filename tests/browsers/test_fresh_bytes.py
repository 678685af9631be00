"""No stale bytes after a scenario change.

A test PKI's CRL publishers and OCSP responders memoise what they sign,
and its per-run fetchers share one memo of parsed responses.  Each memo
is keyed by every input of what it remembers, so changing the scenario
after responses were served -- revoking an element, making its
revocation information unavailable, or stapling -- must serve exactly
what a PKI built with that scenario from the start serves.
"""

from __future__ import annotations

import datetime

import pytest

from repro.browsers.certgen import TestPki
from repro.browsers.registry import all_browsers
from repro.browsers.testsuite import BrowserTestHarness, TestCase
from repro.revocation.ocsp import CertStatus

NOW = datetime.datetime(2015, 3, 31, 12, 0, tzinfo=datetime.timezone.utc)
BROWSERS = all_browsers()
N_INTERMEDIATES = 2

#: scenario name -> (how to apply it to a PKI for element i, the Table 2
#: test-case family it corresponds to).
SCENARIOS = {
    "revoke": (lambda pki, i: pki.revoke(i), "revoked"),
    "crl-http404": (
        lambda pki, i: pki.make_unavailable(i, "crl", "http404"), "unavailable",
    ),
    "ocsp-no-response": (
        lambda pki, i: pki.make_unavailable(i, "ocsp", "no_response"),
        "unavailable",
    ),
    "ocsp-unknown": (
        lambda pki, i: pki.make_unavailable(i, "ocsp", "unknown"), "unavailable",
    ),
    "revoke-then-ocsp-unknown": (
        lambda pki, i: (pki.revoke(i), pki.make_unavailable(i, "ocsp", "unknown")),
        "fallback",
    ),
    "staple-good": (lambda pki, i: pki.set_staple(CertStatus.GOOD), "stapling"),
    "staple-revoked-firewalled": (
        lambda pki, i: (
            pki.revoke(0),
            pki.set_staple(CertStatus.REVOKED, firewall_responder=True),
        ),
        "stapling",
    ),
}


class PkiHarness(BrowserTestHarness):
    """Runs browsers against one given PKI, recording served bodies."""

    def __init__(self, pki: TestPki) -> None:
        super().__init__(now=NOW)
        self.pki = pki
        self.bodies: list[bytes] = []
        request = pki.network.request

        def recording(http_request, at):
            response, stats = request(http_request, at)
            self.bodies.append(response.body)
            return response, stats

        pki.network.request = recording

    def build_pki(self, case):
        return self.pki

    def observe(self, browser, case):
        """(outcome, served bodies) of one run."""
        self.bodies.clear()
        outcome = self.run_case(browser, case)
        return outcome, tuple(self.bodies)

    def serve_element(self, index: int) -> tuple[bytes, bytes]:
        """Fetch element ``index``'s CRL and OCSP response directly,
        through a fresh run's client; returns (CRL bytes, OCSP bytes)."""
        pki = self.pki
        pki.restart_servers()
        pki.checker()
        fetcher = pki.last_fetcher
        cert = pki.element(index)
        issuer = pki.issuer_ca_of(index)
        served = []
        for fetch in (
            lambda: fetcher.fetch_crl_result(cert.crl_urls[0]),
            lambda: fetcher.fetch_ocsp_result(
                cert.ocsp_urls[0], issuer.issuer_key_hash, cert.serial_number
            ),
        ):
            self.bodies.clear()
            assert fetch().ok
            served.append(self.bodies[-1])
        return served[0], served[1]


def _pki() -> TestPki:
    return TestPki("fresh-bytes", N_INTERMEDIATES, {"crl", "ocsp"}, ev=True, now=NOW)


def _case(family: str, index: int) -> TestCase:
    return TestCase(
        test_id="fresh-bytes",
        family=family,
        n_intermediates=N_INTERMEDIATES,
        protocols=frozenset({"crl", "ocsp"}),
        ev=True,
        target_index=index,
    )


@pytest.mark.parametrize("index", range(N_INTERMEDIATES + 1))
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_scenario_change_matches_a_fresh_pki(scenario, index):
    apply, family = SCENARIOS[scenario]
    case = _case(family, index)

    warm = PkiHarness(_pki())
    served_before = warm.serve_element(index)
    before = [warm.observe(browser, case) for browser in BROWSERS]
    assert warm.serve_element(index) == served_before  # replayed from memos

    apply(warm.pki, index)
    warm.pki.restart_servers()
    fresh_pki = _pki()
    apply(fresh_pki, index)
    fresh = PkiHarness(fresh_pki)

    after = [warm.observe(browser, case) for browser in BROWSERS]
    assert after == [fresh.observe(browser, case) for browser in BROWSERS]
    if scenario.startswith(("revoke", "ocsp-unknown")):
        served_after = warm.serve_element(index)
        assert served_after == fresh.serve_element(index)
        assert served_after != served_before
    # Every browser checks a leaf with an OCSP pointer over OCSP, so its
    # CRL being down shows nowhere; every other change shows somewhere.
    if scenario != "staple-good" and (scenario, index) != ("crl-http404", 0):
        assert after != before


def test_runs_share_parses_but_not_client_state():
    harness = PkiHarness(_pki())
    case = _case("baseline", 0)
    browser = next(b for b in BROWSERS if b.label.startswith("Firefox"))
    first = harness.observe(browser, case)
    first_fetcher = harness.pki.last_fetcher
    parsed = dict(harness.pki._decoded)
    second = harness.observe(browser, case)
    second_fetcher = harness.pki.last_fetcher
    assert first == second
    assert parsed and harness.pki._decoded == parsed  # nothing parsed anew
    assert second_fetcher is not first_fetcher
    assert second_fetcher.cache is not first_fetcher.cache
    assert second_fetcher.breaker is not first_fetcher.breaker
    assert second_fetcher.stats is not first_fetcher.stats
    assert second_fetcher.stats.fetches == first_fetcher.stats.fetches > 0
