"""Calibration dataclass and scan-side CRL model tests."""

from __future__ import annotations

import datetime

import pytest

from repro.pki.keys import KeyPair
from repro.pki.name import Name
from repro.revocation.reason import ReasonCode
from repro.scan.calibration import Calibration, PaperTargets
from repro.scan.corpus import CrlEntryRecord, EntryColumns
from repro.scan.crl_model import EcosystemCrl


class TestCalibration:
    def test_scan_dates(self):
        cal = Calibration()
        dates = cal.scan_dates
        assert len(dates) == 74
        assert dates[0] == datetime.date(2013, 10, 30)
        assert cal.scan_end == dates[-1]
        # Paper: scans through (late) March 2015.
        assert datetime.date(2015, 3, 1) <= dates[-1] <= datetime.date(2015, 4, 5)

    def test_crawl_dates_daily(self):
        cal = Calibration()
        dates = cal.crawl_dates
        assert dates[0] == datetime.date(2014, 10, 2)
        assert dates[-1] == datetime.date(2015, 3, 31)
        assert len(dates) == (dates[-1] - dates[0]).days + 1

    def test_scaled(self):
        cal = Calibration(scale=0.002)
        assert cal.scaled(1_000_000) == 2000
        assert cal.scaled(10) == 1  # floor at 1

    def test_crlset_cap_is_scale_invariant(self):
        small = Calibration(scale=0.001)
        big = Calibration(scale=0.1)
        assert small.crlset_size_cap_bytes == big.crlset_size_cap_bytes == 256_000

    def test_paper_targets_frozen_values(self):
        targets = PaperTargets()
        assert targets.leaf_set_size == 5_067_476
        assert targets.crlset_coverage_fraction == pytest.approx(0.0035)
        assert targets.total_crl_entries == 11_461_935


class TestEcosystemCrl:
    @pytest.fixture()
    def crl(self):
        keys = KeyPair.generate("model-ca")
        return EcosystemCrl(
            url="http://crl.model.example/0.crl",
            brand="Model",
            intermediate_id=0,
            issuer_name=Name.make("Model CA"),
            issuer_key_hash=keys.key_id,
            signature_size=256,
            signature_algorithm_oid="1.2.840.113549.1.1.11",
            serial_bytes=4,
        ), keys

    def test_entry_visibility_window(self, crl):
        model, _keys = crl
        entry = CrlEntryRecord(
            serial_number=5,
            revoked_at=datetime.date(2014, 6, 1),
            reason=None,
            cert_not_after=datetime.date(2014, 12, 1),
        )
        model.entries = EntryColumns.encode([entry])
        assert model.entry_count(datetime.date(2014, 7, 1)) == 1
        assert model.entry_count(datetime.date(2014, 5, 1)) == 0
        assert model.entry_count(datetime.date(2015, 1, 1)) == 0  # expired

    def test_additions_on(self, crl):
        model, _keys = crl
        day = datetime.date(2014, 6, 1)
        expiry = day + datetime.timedelta(days=90)
        model.entries = EntryColumns.encode(
            [CrlEntryRecord(1, day, None, expiry), CrlEntryRecord(2, day, None, expiry)]
        )
        assert model.additions_on(day) == 2
        assert model.additions_on(day + datetime.timedelta(days=1)) == 0

    def test_size_matches_real_encoding(self, crl):
        """size_bytes (arithmetic) == len(to_crl(...).to_der()) when all
        entries are materialised."""
        model, keys = crl
        day = datetime.date(2014, 6, 1)
        model.entries = EntryColumns.encode(
            [
                CrlEntryRecord(
                    1000 + serial,
                    day,
                    ReasonCode.UNSPECIFIED if serial % 3 == 0 else None,
                    day + datetime.timedelta(days=365),
                )
                for serial in range(200)
            ]
        )
        check_day = datetime.date(2014, 8, 1)
        real = model.to_crl(check_day, keys)
        assert model.size_bytes(check_day) == len(real.to_der())

    def test_hidden_population_adds_size(self, crl):
        from repro.scan.hidden import HiddenPopulation

        model, _keys = crl
        day = datetime.date(2014, 8, 1)
        empty_size = model.size_bytes(day)
        model.hidden = HiddenPopulation(
            5000, datetime.date(2013, 1, 1), datetime.date(2015, 3, 31)
        )
        assert model.size_bytes(day) > empty_size + 5000 * 20
