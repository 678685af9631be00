"""Rapid7 scanner and daily CRL crawl tests."""

from __future__ import annotations

import datetime

import pytest

from repro.scan.crawl_index import CrawlIndex
from repro.scan.scanner import Rapid7Scanner


@pytest.fixture(scope="module")
def scanner(ecosystem):
    return Rapid7Scanner(ecosystem)


@pytest.fixture(scope="module")
def index(ecosystem):
    return CrawlIndex(ecosystem)


class TestScanner:
    def test_scan_matches_ground_truth(self, scanner, ecosystem):
        date = ecosystem.calibration.scan_dates[30]
        snapshot = scanner.scan(date)
        expected = {l.cert_id for l in ecosystem.leaf_records() if l.is_alive(date)}
        assert snapshot.cert_ids == expected
        assert len(snapshot) == len(expected)

    def test_run_all_produces_74_scans(self, scanner, ecosystem):
        snapshots = scanner.run_all()
        assert len(snapshots) == 74
        assert snapshots[0].date == datetime.date(2013, 10, 30)
        # Weekly cadence.
        assert (snapshots[1].date - snapshots[0].date).days == 7

    def test_membership_operator(self, scanner, ecosystem):
        date = ecosystem.calibration.scan_dates[10]
        snapshot = scanner.scan(date)
        alive = next(l for l in ecosystem.leaf_records() if l.is_alive(date))
        assert alive.cert_id in snapshot

    def test_birth_death_table(self, scanner, ecosystem):
        snapshots = scanner.run_all()
        table = scanner.birth_death_table(snapshots)
        for cert_id, (first, last) in list(table.items())[:200]:
            leaf = ecosystem.leaf(cert_id)
            # Scan-derived lifetime is within the ground-truth lifetime.
            assert leaf.birth <= first <= last <= leaf.death

    def test_scan_growth_over_study(self, scanner):
        snapshots = scanner.run_all()
        # The web grew through the study; later scans see more certs.
        assert len(snapshots[-1]) > len(snapshots[0])


class TestCrawler:
    def test_daily_totals_keys(self, index, ecosystem):
        totals = index.daily_total_additions()
        assert set(totals) == set(ecosystem.calibration.crawl_dates)
        assert all(value >= 0 for value in totals.values())

    def test_weekly_pattern(self, index):
        totals = index.daily_total_additions()
        weekday = [v for d, v in totals.items() if d.weekday() < 5]
        weekend = [v for d, v in totals.items() if d.weekday() >= 5]
        assert sum(weekday) / len(weekday) > 1.5 * sum(weekend) / len(weekend)

    def test_sizes_positive_and_apple_dominates(self, index, ecosystem):
        sizes = index.sizes_at(ecosystem.calibration.measurement_end)
        assert all(size > 0 for size in sizes.values())
        biggest_url = max(sizes, key=sizes.get)
        assert ecosystem.crl_for_url(biggest_url).brand == "Apple"

    def test_entry_counts_consistent_with_sizes(self, index, ecosystem):
        at = ecosystem.calibration.measurement_end
        sizes = index.sizes_at(at)
        counts = index.entry_counts_at(at)
        # Within a brand, the CRL with the most entries must be bigger
        # than the one with the fewest (entry mix adds noise, so strict
        # monotonicity is not expected).
        by_brand = {}
        for crl in ecosystem.crls:
            by_brand.setdefault(crl.brand, []).append(
                (counts[crl.url], sizes[crl.url])
            )
        for brand, pairs in by_brand.items():
            pairs.sort()
            (min_count, min_size), (max_count, max_size) = pairs[0], pairs[-1]
            if max_count > min_count * 1.2:
                assert max_size > min_size, brand
