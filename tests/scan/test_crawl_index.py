"""The incremental crawl index must agree with the naive per-day rescans.

``CrlCrawler`` keeps its pre-index implementations as ``*_naive``
reference methods; every fast query is compared against them here over
the shared scale-0.002 ecosystem plus hand-built edge cases.
"""

from __future__ import annotations

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pki.name import Name
from repro.revocation.reason import ReasonCode
from repro.scan.crawl_index import CrawlIndex, CrlSeries
from repro.scan.crawler import CrlCrawler
from repro.scan.crl_model import CrlEntryRecord, EcosystemCrl


@pytest.fixture(scope="module")
def crawler(ecosystem):
    return CrlCrawler(ecosystem)


def _sample_days(calibration, n=7):
    dates = calibration.crawl_dates
    step = max(1, len(dates) // n)
    return dates[::step]


class TestIndexMatchesNaive:
    def test_entry_counts(self, crawler, ecosystem):
        for day in _sample_days(ecosystem.calibration):
            assert crawler.entry_counts_at(day) == crawler.entry_counts_at_naive(day)

    def test_additions(self, crawler, ecosystem):
        for day in _sample_days(ecosystem.calibration):
            for crl in ecosystem.crls:
                assert crl.series.additions_on(day) == CrlCrawler._additions_on_naive(
                    crl, day
                )

    def test_daily_total_additions(self, crawler):
        assert crawler.daily_total_additions() == crawler.daily_total_additions_naive()

    def test_sizes(self, crawler, ecosystem):
        # The naive leg re-encodes every visible entry, so sample sparsely.
        for day in _sample_days(ecosystem.calibration, n=2):
            assert crawler.sizes_at(day) == crawler.sizes_at_naive(day)

    def test_outside_crawl_window(self, crawler, ecosystem):
        cal = ecosystem.calibration
        for day in (
            cal.crawl_start - datetime.timedelta(days=400),
            cal.crawl_end + datetime.timedelta(days=400),
        ):
            assert crawler.entry_counts_at(day) == crawler.entry_counts_at_naive(day)


def _make_crl(entries=()):
    crl = EcosystemCrl(
        url="http://crl.example/unit.crl",
        brand="Unit",
        intermediate_id=0,
        issuer_name=Name.make("Unit CA", organization="Unit CA"),
        issuer_key_hash=b"\x00" * 32,
        signature_size=256,
        signature_algorithm_oid="1.2.840.113549.1.1.11",
        serial_bytes=16,
    )
    for entry in entries:
        crl.add_entry(entry)
    return crl


class TestSeriesInvalidation:
    def test_add_entry_invalidates(self):
        day = datetime.date(2014, 10, 10)
        crl = _make_crl()
        assert crl.entry_count(day) == 0
        crl.add_entry(
            CrlEntryRecord(
                serial_number=1,
                revoked_at=day,
                reason=None,
                cert_not_after=day + datetime.timedelta(days=90),
            )
        )
        assert crl.entry_count(day) == 1
        assert crl.additions_on(day) == 1

    def test_field_assignment_invalidates(self):
        day = datetime.date(2014, 10, 10)
        crl = _make_crl(
            [
                CrlEntryRecord(
                    serial_number=1,
                    revoked_at=day,
                    reason=None,
                    cert_not_after=day + datetime.timedelta(days=30),
                )
            ]
        )
        assert crl.entry_count(day) == 1
        crl.entries = []
        assert crl.entry_count(day) == 0

    def test_in_place_mutation_needs_explicit_invalidate(self):
        day = datetime.date(2014, 10, 10)
        record = CrlEntryRecord(
            serial_number=1,
            revoked_at=day,
            reason=None,
            cert_not_after=day + datetime.timedelta(days=30),
        )
        crl = _make_crl([record])
        assert crl.entry_count(day + datetime.timedelta(days=10)) == 1
        record.cert_not_after = day + datetime.timedelta(days=5)
        crl.invalidate_series()
        assert crl.entry_count(day + datetime.timedelta(days=10)) == 0

    def test_rejects_entry_expiring_before_revocation(self):
        day = datetime.date(2014, 10, 10)
        crl = _make_crl(
            [
                CrlEntryRecord(
                    serial_number=1,
                    revoked_at=day,
                    reason=None,
                    cert_not_after=day - datetime.timedelta(days=1),
                )
            ]
        )
        with pytest.raises(ValueError):
            CrlSeries(crl)


class TestEntrySizes:
    """Series byte sums come from a size table keyed by serial content
    width, reason presence and time form; they must equal re-encoding
    every entry, across width boundaries, both time forms, and the
    negative-serial fallback."""

    BOUNDARY_SERIALS = [0, 1, 127, 128, 255, 256, 1 << 63, 1 << 159, -1, -129]
    SERIALS = st.sampled_from(BOUNDARY_SERIALS) | st.integers(0, 1 << 160)

    @given(
        st.lists(
            st.tuples(
                SERIALS,
                st.sampled_from([None, ReasonCode.KEY_COMPROMISE]),
                st.sampled_from([2014, 2049, 2050]),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_materialized_bytes_match_encoding(self, specs):
        entries = [
            CrlEntryRecord(
                serial_number=serial,
                revoked_at=datetime.date(year, 6, 1),
                reason=reason,
                cert_not_after=datetime.date(2060, 1, 1),
            )
            for serial, reason, year in specs
        ]
        crl = _make_crl(entries)
        day = datetime.date(2055, 1, 1)
        encoded = sum(
            len(EcosystemCrl._to_revoked_entry(entry).to_der()) for entry in entries
        )
        assert CrlSeries(crl).materialized_bytes(day) == encoded


class TestCrawlIndex:
    def test_memoized_daily_totals(self, ecosystem):
        index = CrawlIndex(ecosystem)
        first = index.daily_total_additions()
        assert index._daily_additions is not None
        # Returned dicts are defensive copies of one memoised sweep.
        second = index.daily_total_additions()
        assert second == first and second is not first

    def test_total_entries_sums_counts(self, ecosystem):
        index = CrawlIndex(ecosystem)
        day = ecosystem.calibration.crawl_end
        assert index.total_entries(day) == sum(index.entry_counts_at(day).values())

    def test_shared_by_pipeline(self, study):
        assert study.crawler.index is study.crawl_index
