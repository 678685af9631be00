"""CRLSet builder, coverage, and dynamics tests over the shared ecosystem."""

from __future__ import annotations

import copy
import dataclasses
import datetime
from operator import attrgetter

import pytest

from repro.crlset.builder import CrlSetBuilder
from repro.crlset.coverage import analyze_coverage
from repro.crlset.dynamics import analyze_dynamics
from repro.revocation.reason import is_crlset_eligible
from repro.scan.crl_model import CrlEntryRecord
from tests.crlset.reference_sweep import reference_sweep

#: EntryHistory fields in the reference sweep's lifecycle tuple order.
_LIFECYCLE = attrgetter(
    "parent",
    "serial",
    "crl_url",
    "revoked_at",
    "cert_not_after",
    "eligible",
    "in_partial_subset",
    "first_appeared",
    "removed_at",
)

#: builder arguments for the default rules and each ablation, with a
#: check that the ablation bites on the scale-0.002 ecosystem.
RULES = {
    "default": ({}, lambda reference, default: True),
    "no-reason-filter": (
        {"apply_reason_filter": False},
        lambda reference, default: reference.lifecycles != default.lifecycles,
    ),
    # Drops CRLs on build days, some of which are included on others.
    "max-entries-800": (
        {"max_entries_override": 800},
        lambda reference, default: reference.dropped_urls > default.dropped_urls,
    ),
    # The cap drops candidate CRLs on every build day.
    "size-cap-40k": (
        {"size_cap_override": 40_000},
        lambda reference, default: all(reference.cap_drops.values()),
    ),
}


@pytest.fixture(scope="module")
def default_reference(ecosystem):
    return reference_sweep(ecosystem)


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

    @pytest.mark.parametrize("rules", sorted(RULES))
    def test_sweep_equals_reference_sweep(self, ecosystem, default_reference, rules):
        kwargs, bites = RULES[rules]
        reference = (
            reference_sweep(ecosystem, **kwargs) if kwargs else default_reference
        )
        assert bites(reference, default_reference)
        history = CrlSetBuilder(ecosystem, **kwargs).run()
        for name in ("daily_entry_counts", "daily_additions", "daily_removals"):
            assert list(getattr(history, name).items()) == list(
                getattr(reference, name).items()
            ), name
        assert [_LIFECYCLE(h) for h in history.entry_histories] == reference.lifecycles
        assert history.covered_urls == reference.covered_urls
        assert history.dropped_urls == reference.dropped_urls
        assert history.parents_ever == reference.parents_ever
        assert history.final_snapshot.parents == reference.final_parents

    def test_repeated_key_is_rejected(self, ecosystem, history):
        """A second listing of a final-snapshot member's (parent, serial)
        on its CRL, revoked 30 days earlier and expiring 10 days before
        the end, would drop the serial from the final snapshot while its
        first listing is still visible; the sweep refuses the corpus."""
        url = "http://crl.rapidssl.example/crl0.crl"
        crl = ecosystem.crl_for_url(url)
        (listing,) = [entry for entry in crl.entries if entry.serial_number == 2163]
        assert 2163 in history.final_snapshot.parents[crl.issuer_key_hash]
        second = CrlEntryRecord(
            serial_number=2163,
            revoked_at=listing.revoked_at - datetime.timedelta(days=30),
            reason=listing.reason,
            cert_not_after=ecosystem.calibration.measurement_end
            - datetime.timedelta(days=10),
        )
        changed = copy.copy(ecosystem)
        changed.crls = [
            dataclasses.replace(c, entries=[*c.entries, second]) if c is crl else c
            for c in ecosystem.crls
        ]
        with pytest.raises(ValueError, match=f"2163 on {url}"):
            CrlSetBuilder(changed).run()


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


def _uncapped_coverage(ecosystem, reason_filter: bool) -> float:
    """Coverage if every covered CRL were admitted in full: no entry
    threshold and no byte cap.  A counting question, since the dropped
    CRLs' populations are bulk-modelled."""
    end = ecosystem.calibration.measurement_end
    admitted = 0
    for crl in ecosystem.crls:
        if not crl.covered:
            continue
        count = crl.entry_count(end)
        if reason_filter:
            visible = crl.visible_entries(end)
            eligible = sum(1 for e in visible if is_crlset_eligible(e.reason))
            # Hidden entries share the corpus-wide reason mix (~87% eligible).
            admitted += eligible + int((count - len(visible)) * 0.87)
        else:
            admitted += count
    return admitted / ecosystem.total_crl_entries(end)


class TestRuleAblation:
    """§7.2: the entry threshold, not the byte cap or the reason filter,
    is what holds CRLSet coverage near 0.35%."""

    def test_dropping_the_reason_filter_admits_more(self, ecosystem, coverage):
        unfiltered = CrlSetBuilder(ecosystem, apply_reason_filter=False).run()
        assert (
            analyze_coverage(ecosystem, unfiltered).coverage_fraction
            >= coverage.coverage_fraction
        )

    def test_entry_threshold_limits_coverage(self, ecosystem, coverage):
        no_threshold = _uncapped_coverage(ecosystem, reason_filter=True)
        no_rules = _uncapped_coverage(ecosystem, reason_filter=False)
        assert no_threshold > 5 * coverage.coverage_fraction
        assert no_rules >= no_threshold


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
