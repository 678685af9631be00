"""The incremental crawl index must agree with the naive per-day rescans.

``naive_crawl`` keeps the pre-index implementations as a test-side
reference; every index query is compared against it here over the
shared scale-0.002 ecosystem plus hand-built edge cases, and the index
must stay at least :data:`MIN_SPEEDUP` times faster than it.
"""

from __future__ import annotations

import datetime
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pki.name import Name
from repro.revocation.reason import ReasonCode
from repro.scan.corpus import CrlEntryRecord, EntryColumns
from repro.scan.crawl_index import CrawlIndex, CrlSeries
from repro.scan.crl_model import EcosystemCrl
from tests.scan import naive_crawl

#: the index must compute the Figure 5/6/9 inputs at least this many
#: times faster than the naive rescans (7.7-10.7x on a 2-vCPU box).
MIN_SPEEDUP = 3.0


@pytest.fixture(scope="module")
def index(ecosystem):
    return CrawlIndex(ecosystem)


def _sample_days(calibration, n=7):
    dates = calibration.crawl_dates
    step = max(1, len(dates) // n)
    return dates[::step]


class TestIndexMatchesNaive:
    def test_entry_counts(self, index, ecosystem):
        for day in _sample_days(ecosystem.calibration):
            assert index.entry_counts_at(day) == naive_crawl.entry_counts_at(
                ecosystem, day
            )

    def test_additions(self, ecosystem):
        for day in _sample_days(ecosystem.calibration):
            for crl in ecosystem.crls:
                assert crl.series.additions_on(day) == naive_crawl.additions_on(
                    crl, day
                )

    def test_daily_total_additions(self, index, ecosystem):
        assert index.daily_total_additions() == naive_crawl.daily_total_additions(
            ecosystem
        )

    def test_sizes(self, index, ecosystem):
        # The naive leg re-encodes every visible entry, so sample sparsely.
        for day in _sample_days(ecosystem.calibration, n=2):
            assert index.sizes_at(day) == naive_crawl.sizes_at(ecosystem, day)

    def test_outside_crawl_window(self, index, ecosystem):
        cal = ecosystem.calibration
        for day in (
            cal.crawl_start - datetime.timedelta(days=400),
            cal.crawl_end + datetime.timedelta(days=400),
        ):
            assert index.entry_counts_at(day) == naive_crawl.entry_counts_at(
                ecosystem, day
            )


def _best_of_three(leg):
    """(fastest wall time of three runs, the last run's result)."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        result = leg()
        times.append(time.perf_counter() - start)
    return min(times), result


class TestIndexSpeed:
    def test_index_beats_the_naive_rescans(self, ecosystem):
        """Figure 5/6/9 inputs on the last measurement day: the index,
        built fresh inside the timed leg, against the naive rescans."""
        end = ecosystem.calibration.measurement_end

        def naive():
            return (
                naive_crawl.daily_total_additions(ecosystem),
                naive_crawl.sizes_at(ecosystem, end),
                naive_crawl.entry_counts_at(ecosystem, end),
            )

        def indexed():
            # Drop every CRL's cached series so the leg pays for the
            # index builds, not only the lookups.
            for crl in ecosystem.crls:
                crl.invalidate_series()
            index = CrawlIndex(ecosystem)
            return (
                index.daily_total_additions(),
                index.sizes_at(end),
                index.entry_counts_at(end),
            )

        naive_s, naive_result = _best_of_three(naive)
        indexed_s, indexed_result = _best_of_three(indexed)
        assert indexed_result == naive_result
        assert naive_s >= MIN_SPEEDUP * indexed_s, (
            f"index {indexed_s:.3f} s vs naive {naive_s:.3f} s: "
            f"{naive_s / indexed_s:.1f}x, floor {MIN_SPEEDUP}x"
        )


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
    crl.entries = EntryColumns.encode(list(entries))
    return crl


class TestSeriesInvalidation:
    def test_assigning_entries_invalidates(self):
        day = datetime.date(2014, 10, 10)
        crl = _make_crl()
        assert crl.entry_count(day) == 0
        crl.entries = EntryColumns.encode(
            [
                CrlEntryRecord(
                    serial_number=1,
                    revoked_at=day,
                    reason=None,
                    cert_not_after=day + datetime.timedelta(days=90),
                )
            ]
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
        crl.entries = EntryColumns.encode([])
        assert crl.entry_count(day) == 0

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
        with pytest.raises(ValueError, match="entry 1 on http://crl.example/unit.crl"):
            CrlSeries(crl)


class TestEntrySizes:
    """Series byte sums come from a size table keyed by serial content
    width, reason presence and time form; they must equal re-encoding
    every entry, across width boundaries and both time forms."""

    BOUNDARY_SERIALS = [0, 1, 127, 128, 255, 256, 1 << 63, 1 << 159]
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
