"""Ecosystem generator tests: structure, determinism, calibration bands.

These bands are the reproduction contract for the scan-side experiments;
they assert the paper's *shape*, not its absolute full-scale numbers.
"""

from __future__ import annotations

import datetime

import pytest

from repro.pki.verify import VerificationStatus, verify_chain
from repro.scan.calibration import Calibration
from repro.scan.ecosystem import Ecosystem


class TestStructure:
    def test_leaf_count_scales(self, ecosystem, calibration):
        expected = sum(
            profile.scaled_certs(calibration.scale)
            for profile in ecosystem.profiles
        )
        assert len(ecosystem.leaves) == expected

    def test_every_leaf_has_consistent_dates(self, ecosystem):
        for leaf in ecosystem.leaf_records():
            assert leaf.not_before < leaf.not_after
            assert leaf.birth >= leaf.not_before
            assert leaf.death >= leaf.birth

    def test_cert_ids_unique(self, ecosystem):
        ids = [leaf.cert_id for leaf in ecosystem.leaf_records()]
        assert len(ids) == len(set(ids))

    def test_serials_unique_within_brand(self, ecosystem):
        for brand in ecosystem.brands:
            leaves = [l for l in ecosystem.leaf_records() if l.brand == brand]
            serials = [l.serial_number for l in leaves]
            assert len(serials) == len(set(serials)), brand

    def test_crl_urls_resolve(self, ecosystem):
        for leaf in ecosystem.leaf_records():
            if leaf.crl_url is not None:
                crl = ecosystem.crl_for_url(leaf.crl_url)
                assert crl.brand == leaf.brand

    def test_revoked_leaves_appear_in_their_crl(self, ecosystem, measurement_end):
        checked = 0
        for leaf in ecosystem.leaf_records():
            if leaf.is_revoked and leaf.crl_url and checked < 200:
                crl = ecosystem.crl_for_url(leaf.crl_url)
                serials = {e.serial_number for e in crl.entries.decode()}
                assert leaf.serial_number in serials
                checked += 1
        assert checked > 50

    def test_intermediate_records_match_brands(self, ecosystem):
        brands = {p.name for p in ecosystem.profiles}
        assert {rec.brand for rec in ecosystem.intermediates} <= brands

    def test_deterministic_given_seed(self):
        a = Ecosystem(Calibration(scale=0.0005, seed=99))
        b = Ecosystem(Calibration(scale=0.0005, seed=99))
        assert len(a.leaves) == len(b.leaves)
        assert [l.serial_number for l in a.leaf_records(slice(50))] == [
            l.serial_number for l in b.leaf_records(slice(50))
        ]
        assert a.leaf(10).revoked_at == b.leaf(10).revoked_at

    def test_different_seeds_differ(self):
        a = Ecosystem(Calibration(scale=0.0005, seed=1))
        b = Ecosystem(Calibration(scale=0.0005, seed=2))
        assert [l.not_before for l in a.leaf_records(slice(100))] != [
            l.not_before for l in b.leaf_records(slice(100))
        ]


class TestChainMaterialization:
    def test_materialized_chain_verifies(self, ecosystem):
        for leaf in ecosystem.leaf_records(slice(None, None, 1500)):
            chain = ecosystem.chain_for(leaf)
            status = verify_chain(chain, ecosystem.root_store)
            assert status is VerificationStatus.OK

    def test_materialized_cert_matches_record(self, ecosystem):
        leaf = ecosystem.leaf(7)
        cert = ecosystem.materialize(leaf)
        assert cert.serial_number == leaf.serial_number
        assert cert.is_ev == leaf.is_ev
        assert (cert.crl_urls[0] if cert.crl_urls else None) == leaf.crl_url
        assert cert.not_before.date() == leaf.not_before


class TestCalibrationBands:
    """The paper-shape contract (§3-§5 aggregates)."""

    def test_revocation_pointer_fractions(self, ecosystem):
        leaves = ecosystem.leaf_records()
        n = len(ecosystem.leaves)
        crl = sum(1 for l in leaves if l.has_crl) / n
        ocsp = sum(1 for l in leaves if l.has_ocsp) / n
        neither = sum(1 for l in leaves if not l.has_revocation_info) / n
        assert crl > 0.98  # paper: 99.9%
        assert 0.90 <= ocsp <= 0.99  # paper: 95.0%
        assert neither < 0.01  # paper: 0.09%

    def test_fresh_revoked_band(self, ecosystem, measurement_end):
        fresh = ecosystem.leaf_records(ecosystem.leaves.fresh_mask(measurement_end))
        fraction = sum(1 for l in fresh if l.is_revoked_by(measurement_end)) / len(
            fresh
        )
        assert 0.05 <= fraction <= 0.13  # paper: >8%

    def test_alive_revoked_band(self, ecosystem, measurement_end):
        alive = ecosystem.leaf_records(ecosystem.leaves.alive_mask(measurement_end))
        fraction = sum(1 for l in alive if l.is_revoked_by(measurement_end)) / len(
            alive
        )
        assert 0.003 <= fraction <= 0.015  # paper: ~0.6%

    def test_pre_heartbleed_band(self, ecosystem):
        day = datetime.date(2014, 3, 1)
        fresh = ecosystem.leaf_records(ecosystem.leaves.fresh_mask(day))
        fraction = sum(1 for l in fresh if l.is_revoked_by(day)) / len(fresh)
        assert 0.002 <= fraction <= 0.025  # paper: ~1%

    def test_heartbleed_spike(self, ecosystem):
        before = datetime.date(2014, 3, 1)
        after = datetime.date(2014, 5, 15)
        f_before = ecosystem.leaf_records(ecosystem.leaves.fresh_mask(before))
        f_after = ecosystem.leaf_records(ecosystem.leaves.fresh_mask(after))
        r_before = sum(1 for l in f_before if l.is_revoked_by(before)) / len(f_before)
        r_after = sum(1 for l in f_after if l.is_revoked_by(after)) / len(f_after)
        assert r_after > 4 * r_before

    def test_brand_revocation_totals_match_profiles(self, ecosystem, calibration):
        for profile in ecosystem.profiles:
            revoked = sum(
                1
                for l in ecosystem.leaf_records()
                if l.brand == profile.name and l.is_revoked
            )
            target = profile.scaled_revoked(calibration.scale)
            assert abs(revoked - target) <= max(2, target * 0.02), profile.name

    def test_ev_fraction_band(self, ecosystem):
        n = len(ecosystem.leaves)
        ev = sum(1 for l in ecosystem.leaf_records() if l.is_ev) / n
        assert 0.015 <= ev <= 0.08  # paper: ~3.7% of fresh certs

    def test_total_crl_entries_far_exceed_observed_revocations(
        self, ecosystem, measurement_end
    ):
        # Paper: 11.46 M CRL entries vs ~420 k observed revocations.
        observed = sum(1 for l in ecosystem.leaf_records() if l.is_revoked)
        assert ecosystem.total_crl_entries(measurement_end) > 10 * observed

    def test_alexa_ranks_assigned(self, ecosystem, calibration):
        ranked = [l for l in ecosystem.leaf_records() if l.alexa_rank is not None]
        assert len(ranked) == calibration.scaled(1_000_000)
        assert len({l.alexa_rank for l in ranked}) == len(ranked)

    def test_invalid_cert_count_ratio(self, ecosystem):
        # Paper: 38.5 M seen vs 5.07 M valid -> ~6.6x more invalid than valid.
        ratio = ecosystem.invalid_cert_count / len(ecosystem.leaves)
        assert 5.0 <= ratio <= 8.0
