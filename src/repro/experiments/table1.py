"""Table 1: per-CA CRL statistics for the largest CAs."""

from __future__ import annotations

import numpy as np

from repro.ca.profiles import PAPER_CA_PROFILES
from repro.core.pipeline import MeasurementStudy
from repro.core.report import format_table
from repro.experiments.common import ExperimentResult, stage

EXPERIMENT_ID = "table1"
TITLE = "Per-CA CRL statistics (Table 1)"

#: the nine CAs the paper's Table 1 lists, in its order.
TABLE1_BRANDS = (
    "GoDaddy",
    "RapidSSL",
    "Comodo",
    "PositiveSSL",
    "GeoTrust",
    "Verisign",
    "Thawte",
    "GlobalSign",
    "StartCom",
)


def run(study: MeasurementStudy) -> ExperimentResult:
    at = study.calibration.measurement_end
    eco = study.ecosystem
    with stage(study, "crl_sizes"):
        sizes = study.crl_sizes(at)
    profiles = {p.name: p for p in PAPER_CA_PROFILES}

    rows = []
    data = {}
    for brand in TABLE1_BRANDS:
        leaves = eco.leaves[eco.brands[brand].layout.cert_rows]
        revoked = int(np.count_nonzero(leaves.revoked_mask()))
        brand_crls = [crl for crl in eco.crls if crl.brand == brand]
        # Average CRL size per certificate (each cert weighted by the
        # size of the CRL it points at), as in the paper.
        weighted_total = sum(
            sizes[crl.url] * crl.assigned_cert_count for crl in brand_crls
        )
        assigned = sum(crl.assigned_cert_count for crl in brand_crls)
        avg_kb = (weighted_total / assigned / 1024) if assigned else 0.0
        paper = profiles[brand]
        rows.append(
            (
                brand,
                len(brand_crls),
                f"{len(leaves):,}",
                f"{revoked:,}",
                f"{avg_kb:,.1f}",
                f"{paper.avg_crl_kb:,.1f}",
            )
        )
        data[brand] = {
            "crls": len(brand_crls),
            "total": len(leaves),
            "revoked": revoked,
            "avg_crl_kb": avg_kb,
            "paper_avg_crl_kb": paper.avg_crl_kb,
        }

    rendered = format_table(
        ["CA", "CRLs", "certs", "revoked", "avg CRL KB", "paper avg KB"],
        rows,
    )
    result = ExperimentResult(EXPERIMENT_ID, TITLE, rendered, data=data)

    # Shape checks: ordering phenomena the paper highlights.
    godaddy = data["GoDaddy"]
    rapidssl = data["RapidSSL"]
    globalsign = data["GlobalSign"]
    geotrust = data["GeoTrust"]
    result.compare(
        "GoDaddy shards the most CRLs", "322 CRLs",
        f"{godaddy['crls']} (scaled)",
        shape_holds=godaddy["crls"] == max(d["crls"] for d in data.values()),
    )
    result.compare(
        "GoDaddy avg CRL still >1 MB despite sharding", "1,184 KB",
        f"{godaddy['avg_crl_kb']:,.0f} KB",
        shape_holds=godaddy["avg_crl_kb"] > 400,
    )
    result.compare(
        "GlobalSign heaviest per-cert CRL", "2,050 KB",
        f"{globalsign['avg_crl_kb']:,.0f} KB",
        shape_holds=globalsign["avg_crl_kb"]
        == max(d["avg_crl_kb"] for d in data.values()),
    )
    result.compare(
        "GeoTrust lightest per-cert CRL", "12.9 KB",
        f"{geotrust['avg_crl_kb']:.1f} KB",
        shape_holds=geotrust["avg_crl_kb"]
        == min(d["avg_crl_kb"] for d in data.values()),
    )
    result.compare(
        "RapidSSL: many certs, few revocations", "626,774 / 2,153",
        f"{rapidssl['total']} / {rapidssl['revoked']}",
        shape_holds=rapidssl["revoked"] / max(1, rapidssl["total"]) < 0.02,
    )
    for brand in TABLE1_BRANDS:
        ratio = data[brand]["avg_crl_kb"] / profiles[brand].avg_crl_kb
        result.compare(
            f"{brand} avg CRL size vs paper",
            f"{profiles[brand].avg_crl_kb:,.1f} KB",
            f"{data[brand]['avg_crl_kb']:,.1f} KB",
            shape_holds=0.4 <= ratio <= 2.5,
        )
    return result
