"""Export/import of measurement artefacts.

The paper releases its data at sslresearch.org; this module is the
equivalent for the reproduction: it serialises the study's derived
artefacts (Leaf Set records, scan snapshots, daily CRL series, CRLSet
history) to plain JSON/CSV files so they can be analysed outside this
library, and loads them back for offline analysis.

Layout of an export directory::

    manifest.json        calibration + corpus summary
    leaf_set.csv         one row per Leaf Set certificate
    scans.json           cert-ids observed per weekly scan
    crl_series.csv       per-CRL daily entry counts over the crawl window
    crlset_daily.csv     CRLSet entry counts / additions / removals per day

The corpus store behind ``MeasurementStudy(cache_dir=...)`` is not a
data release; :mod:`repro.scan.corpus_store` owns it.
"""

from __future__ import annotations

import csv
import datetime
import json
from dataclasses import dataclass
from pathlib import Path

from repro.core.pipeline import MeasurementStudy

__all__ = ["ExportedStudy", "export_study", "load_export"]

_DATE = "%Y-%m-%d"


def _iso(day: datetime.date) -> str:
    return day.strftime(_DATE)


def export_study(study: MeasurementStudy, directory: str | Path) -> Path:
    """Write the study's artefacts; returns the export directory."""
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    eco = study.ecosystem
    cal = study.calibration

    manifest = {
        "paper": "An End-to-End Measurement of Certificate Revocation in the Web's PKI (IMC 2015)",
        "scale": cal.scale,
        "seed": cal.seed,
        "leaf_count": len(eco.leaves),
        "intermediate_count": len(eco.intermediates),
        "crl_count": len(eco.crls),
        "scan_dates": [_iso(d) for d in cal.scan_dates],
        "crawl_start": _iso(cal.crawl_start),
        "crawl_end": _iso(cal.crawl_end),
    }
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2))

    with open(root / "leaf_set.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "cert_id", "brand", "serial", "not_before", "not_after",
                "birth", "death", "is_ev", "crl_url", "ocsp_url",
                "revoked_at", "reason", "server_count", "stapling_servers",
                "alexa_rank",
            ]
        )
        for leaf in eco.leaf_records():
            writer.writerow(
                [
                    leaf.cert_id,
                    leaf.brand,
                    leaf.serial_number,
                    _iso(leaf.not_before),
                    _iso(leaf.not_after),
                    _iso(leaf.birth),
                    _iso(leaf.death),
                    int(leaf.is_ev),
                    leaf.crl_url or "",
                    leaf.ocsp_url or "",
                    _iso(leaf.revoked_at) if leaf.revoked_at else "",
                    leaf.revocation_reason.name if leaf.revocation_reason else "",
                    leaf.server_count,
                    leaf.stapling_servers,
                    leaf.alexa_rank if leaf.alexa_rank is not None else "",
                ]
            )

    scans = {
        _iso(snapshot.date): snapshot.ids.tolist() for snapshot in study.scans
    }
    (root / "scans.json").write_text(json.dumps(scans))

    with open(root / "crl_series.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["date", "url", "entry_count", "additions"])
        for day in cal.crawl_dates[:: max(1, len(cal.crawl_dates) // 60)]:
            for crl in eco.crls:
                writer.writerow(
                    [
                        _iso(day),
                        crl.url,
                        crl.series.entry_count(day),
                        crl.series.additions_on(day),
                    ]
                )

    history = study.crlset_history
    with open(root / "crlset_daily.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["date", "entries", "additions", "removals"])
        for day in sorted(history.daily_entry_counts):
            writer.writerow(
                [
                    _iso(day),
                    history.daily_entry_counts[day],
                    history.daily_additions.get(day, 0),
                    history.daily_removals.get(day, 0),
                ]
            )
    return root


@dataclass(frozen=True)
class ExportedStudy:
    """A loaded export, for analysis without the generator."""

    manifest: dict
    leaves: list[dict]
    scans: dict[datetime.date, frozenset[int]]
    crlset_daily: dict[datetime.date, dict[str, int]]

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)

    def revoked_leaves(self) -> list[dict]:
        return [row for row in self.leaves if row["revoked_at"]]

    def fresh_revoked_fraction(self, on: datetime.date) -> float:
        fresh = [
            row
            for row in self.leaves
            if row["not_before"] <= on <= row["not_after"]
        ]
        if not fresh:
            return 0.0
        revoked = sum(
            1 for row in fresh if row["revoked_at"] and row["revoked_at"] <= on
        )
        return revoked / len(fresh)


def load_export(directory: str | Path) -> ExportedStudy:
    root = Path(directory)
    manifest = json.loads((root / "manifest.json").read_text())

    leaves: list[dict] = []
    with open(root / "leaf_set.csv", newline="") as handle:
        for row in csv.DictReader(handle):
            leaves.append(
                {
                    "cert_id": int(row["cert_id"]),
                    "brand": row["brand"],
                    "not_before": _parse(row["not_before"]),
                    "not_after": _parse(row["not_after"]),
                    "birth": _parse(row["birth"]),
                    "death": _parse(row["death"]),
                    "is_ev": row["is_ev"] == "1",
                    "crl_url": row["crl_url"] or None,
                    "ocsp_url": row["ocsp_url"] or None,
                    "revoked_at": _parse(row["revoked_at"]) if row["revoked_at"] else None,
                    "reason": row["reason"] or None,
                    "alexa_rank": int(row["alexa_rank"]) if row["alexa_rank"] else None,
                }
            )

    scans_raw = json.loads((root / "scans.json").read_text())
    scans = {
        _parse(date): frozenset(cert_ids) for date, cert_ids in scans_raw.items()
    }

    crlset_daily: dict[datetime.date, dict[str, int]] = {}
    with open(root / "crlset_daily.csv", newline="") as handle:
        for row in csv.DictReader(handle):
            crlset_daily[_parse(row["date"])] = {
                "entries": int(row["entries"]),
                "additions": int(row["additions"]),
                "removals": int(row["removals"]),
            }
    return ExportedStudy(
        manifest=manifest, leaves=leaves, scans=scans, crlset_daily=crlset_daily
    )


def _parse(text: str) -> datetime.date:
    return datetime.datetime.strptime(text, _DATE).date()
