"""Fault-injection layer: spec validation, plan matching, determinism,
and every fault kind observed through a live Network."""

from __future__ import annotations

import datetime

import pytest

from repro.asn1 import der
from repro.net.dns import DnsError
from repro.net.endpoints import StaticEndpoint
from repro.net.faults import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    PROFILES,
    plan_from_profile,
)
from repro.net.http import HttpStatus
from repro.net.transport import FailureMode, Network, TimeoutError_

UTC = datetime.timezone.utc
NOW = datetime.datetime(2015, 4, 15, 12, 0, tzinfo=UTC)
URL = "http://crl.faulty.example/a.crl"
BODY = der.encode_tlv(der.Tag.SEQUENCE, b"x" * 996)


def make_network(plan: FaultPlan | None) -> Network:
    network = Network(faults=plan)
    network.register(URL, StaticEndpoint(BODY))
    return network


class TestFaultSpec:
    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.FLAKY, probability=1.5)

    def test_outage_requires_window(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.OUTAGE)

    def test_window_ordering(self):
        with pytest.raises(ValueError):
            FaultSpec(
                FaultKind.OUTAGE,
                window=(NOW, NOW - datetime.timedelta(hours=1)),
            )

    def test_truncate_fraction_bounds(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.TRUNCATE, truncate_fraction=1.0)


class TestPatternMatching:
    def test_star_matches_all(self):
        plan = FaultPlan(seed=1).add("*", FaultSpec(FaultKind.FLAKY))
        assert plan.decide(URL, NOW).mode is FailureMode.NO_RESPONSE

    def test_host_wildcard(self):
        plan = FaultPlan(seed=1).add(
            "crl.faulty.example/*", FaultSpec(FaultKind.FLAKY)
        )
        assert not plan.decide(URL, NOW).is_noop
        assert plan.decide("http://other.example/a.crl", NOW).is_noop

    def test_exact_url(self):
        plan = FaultPlan(seed=1).add(URL, FaultSpec(FaultKind.FLAKY))
        assert not plan.decide(URL, NOW).is_noop
        assert plan.decide("http://crl.faulty.example/b.crl", NOW).is_noop


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        def decisions(seed):
            plan = FaultPlan(seed=seed).add(
                "*", FaultSpec(FaultKind.FLAKY, probability=0.5)
            )
            return [plan.decide(URL, NOW).mode for _ in range(50)]

        assert decisions(7) == decisions(7)
        assert decisions(7) != decisions(8)  # astronomically unlikely to tie

    def test_streams_independent_per_url(self):
        # Interleaving requests to another URL must not shift this URL's
        # fault sequence (parallel workers see per-URL order only).
        plan_a = FaultPlan(seed=3).add("*", FaultSpec(FaultKind.FLAKY, probability=0.5))
        plan_b = FaultPlan(seed=3).add("*", FaultSpec(FaultKind.FLAKY, probability=0.5))
        seq_a = [plan_a.decide(URL, NOW).mode for _ in range(20)]
        seq_b = []
        for _ in range(20):
            plan_b.decide("http://other.example/x", NOW)
            seq_b.append(plan_b.decide(URL, NOW).mode)
        assert seq_a == seq_b

    def test_reset_replays_from_scratch(self):
        plan = FaultPlan(seed=9).add("*", FaultSpec(FaultKind.FLAKY, probability=0.5))
        first = [plan.decide(URL, NOW).mode for _ in range(20)]
        plan.reset()
        assert [plan.decide(URL, NOW).mode for _ in range(20)] == first

    def test_corrupt_firing_does_not_shift_later_rules(self):
        # A CORRUPT rule takes its byte pick and bit whether or not it
        # fires, so the rules after it see the same draws at any
        # CORRUPT probability.
        def flaky_fired(corrupt_probability):
            plan = FaultPlan(seed=7)
            plan.add("*", FaultSpec(FaultKind.CORRUPT, probability=corrupt_probability))
            plan.add("*", FaultSpec(FaultKind.FLAKY, probability=0.3))
            return [
                plan.decide(URL, NOW).mode is FailureMode.NO_RESPONSE
                for _ in range(200)
            ]

        baseline = flaky_fired(0.0)
        assert 0 < sum(baseline) < 200
        assert flaky_fired(0.5) == baseline
        assert flaky_fired(1.0) == baseline

    def test_corrupt_edits_nest_as_probability_rises(self):
        def edits(probability):
            plan = FaultPlan(seed=7).add(
                "*", FaultSpec(FaultKind.CORRUPT, probability=probability)
            )
            return [plan.decide(URL, NOW).edit_body(BODY) for _ in range(100)]

        low, high = edits(0.2), edits(0.6)
        assert any(body != BODY for body in low)
        for at_low, at_high in zip(low, high):
            if at_low != BODY:
                assert at_high == at_low

    def test_rules_apply_only_to_matching_urls(self):
        plan = FaultPlan(seed=1)
        assert not plan.applies_to(URL)
        plan.add("crl.other.example/*", FaultSpec(FaultKind.FLAKY))
        assert not plan.applies_to(URL)
        assert plan.decide(URL, NOW).is_noop
        plan.add("crl.faulty.example/a.crl", FaultSpec(FaultKind.SLOW))
        assert plan.applies_to(URL)
        assert not plan.applies_to("http://crl.faulty.example/b.crl")


class TestFaultKindsThroughNetwork:
    def test_flaky_timeout(self):
        plan = FaultPlan(seed=1).add("*", FaultSpec(FaultKind.FLAKY))
        network = make_network(plan)
        with pytest.raises(TimeoutError_) as excinfo:
            network.get(URL, NOW)
        # Failed requests carry their cost.
        assert excinfo.value.stats.latency == network.timeout

    def test_flaky_nxdomain(self):
        plan = FaultPlan(seed=1).add(
            "*", FaultSpec(FaultKind.FLAKY, mode=FailureMode.NXDOMAIN)
        )
        network = make_network(plan)
        with pytest.raises(DnsError) as excinfo:
            network.get(URL, NOW)
        assert excinfo.value.stats.latency == network.profile.rtt

    def test_flaky_404(self):
        plan = FaultPlan(seed=1).add(
            "*", FaultSpec(FaultKind.FLAKY, mode=FailureMode.HTTP_404)
        )
        network = make_network(plan)
        response, _ = network.get(URL, NOW)
        assert response.status == HttpStatus.NOT_FOUND

    def test_outage_window(self):
        window = (NOW, NOW + datetime.timedelta(hours=1))
        plan = FaultPlan(seed=1).add(
            "*", FaultSpec(FaultKind.OUTAGE, window=window)
        )
        network = make_network(plan)
        with pytest.raises(TimeoutError_):
            network.get(URL, NOW)
        # Outside the window the endpoint is healthy again.
        response, _ = network.get(URL, NOW + datetime.timedelta(hours=2))
        assert response.ok

    def test_slow_adds_latency(self):
        extra = datetime.timedelta(seconds=2)
        plan = FaultPlan(seed=1).add(
            "*", FaultSpec(FaultKind.SLOW, extra_latency=extra)
        )
        network = make_network(plan)
        _, slow_stats = network.get(URL, NOW)
        baseline = make_network(None)
        _, fast_stats = baseline.get(URL, NOW)
        assert slow_stats.latency == fast_stats.latency + extra

    def test_truncate_shortens_body(self):
        plan = FaultPlan(seed=1).add(
            "*", FaultSpec(FaultKind.TRUNCATE, truncate_fraction=0.25)
        )
        network = make_network(plan)
        response, stats = network.get(URL, NOW)
        assert response.ok
        assert len(response.body) == len(BODY) // 4
        assert stats.bytes_down == len(response.body)

    def test_corrupt_flips_one_bit(self):
        plan = FaultPlan(seed=1).add("*", FaultSpec(FaultKind.CORRUPT))
        network = make_network(plan)
        response, _ = network.get(URL, NOW)
        assert len(response.body) == len(BODY)
        diff = [
            (a ^ b)
            for a, b in zip(response.body, BODY)
            if a != b
        ]
        assert len(diff) == 1
        assert bin(diff[0]).count("1") == 1

    def test_stale_rewinds_endpoint_clock(self):
        seen = []

        class RecordingEndpoint:
            def handle(self, request, at):
                seen.append(at)
                from repro.net.http import HttpResponse

                return HttpResponse(HttpStatus.OK, b"ok")

        stale_by = datetime.timedelta(days=30)
        plan = FaultPlan(seed=1).add(
            "*", FaultSpec(FaultKind.STALE, stale_by=stale_by)
        )
        network = Network(faults=plan)
        network.register(URL, RecordingEndpoint())
        network.get(URL, NOW)
        assert seen == [NOW - stale_by]

    def test_faulted_request_counter(self):
        plan = FaultPlan(seed=1).add(
            "*", FaultSpec(FaultKind.SLOW, probability=0.5)
        )
        network = make_network(plan)
        for _ in range(40):
            network.get(URL, NOW)
        assert 0 < network.faulted_requests < 40


class TestProfiles:
    def test_known_profiles_build(self):
        for name in PROFILES:
            plan = plan_from_profile(name, seed=4)
            assert len(plan) == len(PROFILES[name])

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            plan_from_profile("mayhem")

    def test_none_profile_is_noop(self):
        plan = plan_from_profile("none", seed=4)
        assert plan.decide(URL, NOW).is_noop

    def test_chaos_profile_faults_a_lot(self):
        plan = plan_from_profile("chaos", seed=4)
        triggered = sum(
            0 if plan.decide(URL, NOW).is_noop else 1 for _ in range(200)
        )
        assert triggered > 20
