"""Export/import round-trip tests for the data-release module."""

from __future__ import annotations

import csv
import datetime
import json

import pytest

from repro.scan.datastore import export_study, load_export


@pytest.fixture(scope="module")
def export_dir(study, tmp_path_factory):
    directory = tmp_path_factory.mktemp("export")
    return export_study(study, directory)


class TestExport:
    def test_files_present(self, export_dir):
        for name in (
            "manifest.json",
            "leaf_set.csv",
            "scans.json",
            "crl_series.csv",
            "crlset_daily.csv",
        ):
            assert (export_dir / name).exists(), name

    def test_manifest_contents(self, export_dir, study):
        manifest = json.loads((export_dir / "manifest.json").read_text())
        assert manifest["scale"] == study.calibration.scale
        assert manifest["leaf_count"] == len(study.ecosystem.leaves)
        assert len(manifest["scan_dates"]) == 74

    def test_crl_series_covers_every_crl(self, export_dir, study):
        """Each exported crawl day lists every CRL with the crawl index's
        entry count and additions for that day."""
        with open(export_dir / "crl_series.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        by_day: dict[str, dict[str, tuple[int, int]]] = {}
        for row in rows:
            by_day.setdefault(row["date"], {})[row["url"]] = (
                int(row["entry_count"]),
                int(row["additions"]),
            )
        assert len(by_day) > 1
        for iso, observed in by_day.items():
            day = datetime.date.fromisoformat(iso)
            assert observed == {
                crl.url: (crl.series.entry_count(day), crl.series.additions_on(day))
                for crl in study.ecosystem.crls
            }


class TestRoundTrip:
    @pytest.fixture(scope="class")
    def loaded(self, export_dir):
        return load_export(export_dir)

    def test_leaf_count(self, loaded, study):
        assert loaded.leaf_count == len(study.ecosystem.leaves)

    def test_revoked_counts_match(self, loaded, study):
        expected = sum(1 for l in study.ecosystem.leaf_records() if l.is_revoked)
        assert len(loaded.revoked_leaves()) == expected

    def test_scans_match(self, loaded, study):
        for snapshot in study.scans[:5]:
            assert loaded.scans[snapshot.date] == snapshot.cert_ids

    def test_fresh_revoked_recomputable_from_export(self, loaded, study):
        """The headline fraction must be derivable from the release alone."""
        end = study.calibration.measurement_end
        from_export = loaded.fresh_revoked_fraction(end)
        eco = study.ecosystem
        fresh = eco.leaf_records(eco.leaves.fresh_mask(end))
        ground = sum(1 for l in fresh if l.is_revoked_by(end)) / len(fresh)
        assert from_export == pytest.approx(ground, abs=1e-9)

    def test_crlset_series_matches(self, loaded, study):
        history = study.crlset_history
        probe = datetime.date(2014, 6, 15)
        assert loaded.crlset_daily[probe]["entries"] == history.daily_entry_counts[
            probe
        ]
