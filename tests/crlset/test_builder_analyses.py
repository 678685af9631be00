"""CRLSet builder, coverage, and dynamics tests over the shared ecosystem."""

from __future__ import annotations

import datetime

import pytest

from repro.crlset.builder import CrlSetBuilder
from repro.crlset.coverage import analyze_coverage
from repro.crlset.dynamics import analyze_dynamics


class FullRebuildBuilder(CrlSetBuilder):
    """Reference sweep: rebuilds the member set from every included
    CRL's active set on every build day, never taking the delta path."""

    def _included_urls(self, tracks, day):
        self._tracks = tracks
        self._included = super()._included_urls(tracks, day)
        return self._included

    def _sync_pending(self, members, histories, pending, day):
        return self._sync_full(
            self._tracks, members, histories, self._included, day
        )


@pytest.fixture(scope="module")
def history(crlset_history):
    return crlset_history


@pytest.fixture(scope="module")
def coverage(ecosystem, history):
    return analyze_coverage(ecosystem, history)


@pytest.fixture(scope="module")
def dynamics(ecosystem, history):
    return analyze_dynamics(ecosystem, history)


class TestBuilderRules:
    def test_cap_respected(self, history, ecosystem):
        assert (
            history.final_snapshot.size_bytes
            <= ecosystem.calibration.crlset_size_cap_bytes
        )

    def test_only_covered_crls_contribute(self, history, ecosystem):
        covered_brands = {
            profile.name for profile in ecosystem.profiles if profile.crlset_covered
        }
        for h in history.entry_histories:
            crl = ecosystem.crl_for_url(h.crl_url)
            assert crl.brand in covered_brands

    def test_oversized_crls_dropped(self, history, ecosystem):
        # GoDaddy's huge shards are crawled but never admitted (rule 3).
        godaddy_urls = {c.url for c in ecosystem.crls if c.brand == "GoDaddy"}
        appeared_urls = {
            h.crl_url for h in history.entry_histories if h.first_appeared
        }
        assert not godaddy_urls & appeared_urls

    def test_ineligible_reasons_never_appear(self, history):
        for h in history.entry_histories:
            if not h.eligible:
                assert h.first_appeared is None

    def test_gap_freezes_membership(self, history, ecosystem):
        cal = ecosystem.calibration
        day = cal.crlset_gap_start
        while day < cal.crlset_gap_end:
            assert history.daily_additions.get(day, 0) == 0
            assert history.daily_removals.get(day, 0) == 0
            day += datetime.timedelta(days=1)

    def test_parent_removal_event(self, history, ecosystem):
        cal = ecosystem.calibration
        removal = cal.crlset_parent_removal_date
        before = history.daily_entry_counts[removal - datetime.timedelta(days=2)]
        after = history.daily_entry_counts[removal + datetime.timedelta(days=2)]
        assert after < before * 0.92

    def test_removed_brand_absent_at_end(self, history, ecosystem):
        ev_parents = {
            crl.issuer_key_hash
            for crl in ecosystem.crls
            if crl.brand == "VerisignEV"
        }
        assert not ev_parents & set(history.final_snapshot.parents)

    def test_determinism(self, ecosystem):
        a = CrlSetBuilder(ecosystem).run()
        b = CrlSetBuilder(ecosystem).run()
        assert a.daily_entry_counts == b.daily_entry_counts
        assert a.final_snapshot.parents == b.final_snapshot.parents

    def test_incremental_sweep_equals_full_rebuild(self, history, ecosystem):
        full = FullRebuildBuilder(ecosystem).run()
        assert full.daily_entry_counts == history.daily_entry_counts
        assert full.daily_additions == history.daily_additions
        assert full.daily_removals == history.daily_removals
        assert full.covered_urls == history.covered_urls
        assert full.dropped_urls == history.dropped_urls
        assert full.parents_ever == history.parents_ever
        assert full.final_snapshot.parents == history.final_snapshot.parents
        key = lambda h: (h.crl_url, h.serial)
        assert {
            key(h): (h.first_appeared, h.removed_at) for h in full.entry_histories
        } == {
            key(h): (h.first_appeared, h.removed_at) for h in history.entry_histories
        }


class TestCoverage:
    def test_tiny_overall_coverage(self, coverage):
        # Paper: 0.35% of all revocations ever appear in CRLSets.
        assert coverage.coverage_fraction < 0.02

    def test_covered_crl_minority(self, coverage):
        assert 0 < coverage.covered_crl_count < coverage.total_crl_count * 0.45

    def test_most_covered_crls_fully_covered(self, coverage):
        # Paper: 75.6% of covered CRLs have all eligible entries present.
        assert coverage.fully_covered_fraction >= 0.5

    def test_eligible_coverage_dominates_all_coverage(self, coverage):
        import statistics

        assert statistics.median(
            coverage.per_crl_coverage_eligible
        ) >= statistics.median(coverage.per_crl_coverage_all)

    def test_alexa_mostly_uncovered(self, coverage):
        assert coverage.alexa_1m_revocations > 0
        assert coverage.alexa_1m_fraction < 0.3

    def test_parent_counts(self, coverage, history):
        assert coverage.parents_in_crlset == len(history.parents_ever)
        assert coverage.parents_in_crlset < coverage.total_ca_certs


class TestDynamics:
    def test_entry_band(self, dynamics):
        assert 2_000 <= dynamics.min_entries <= dynamics.max_entries <= 60_000

    def test_peak_in_heartbleed_window(self, dynamics):
        peak_day = max(dynamics.entry_count_series, key=dynamics.entry_count_series.get)
        assert datetime.date(2014, 3, 15) <= peak_day <= datetime.date(2014, 6, 15)

    def test_appearance_lag_cdf(self, dynamics):
        assert 0.4 <= dynamics.appear_within(1) <= 0.9
        assert dynamics.appear_within(2) >= 0.8
        assert dynamics.appear_within(10) >= dynamics.appear_within(2)

    def test_removal_long_before_expiry(self, dynamics):
        assert dynamics.removal_before_expiry_days  # the Fig 10 population
        assert dynamics.median_removal_before_expiry > 60

    def test_weekly_pattern(self, dynamics):
        assert dynamics.weekly_pattern_ratio() > 1.5

    def test_crl_additions_dwarf_crlset_additions(self, dynamics):
        crl_mean = sum(dynamics.crl_daily_additions.values()) / len(
            dynamics.crl_daily_additions
        )
        crlset_mean = sum(dynamics.crlset_daily_additions.values()) / max(
            1, len(dynamics.crlset_daily_additions)
        )
        assert crl_mean > 5 * max(crlset_mean, 0.1)
