"""Serving-side cost: what the CA/CDN pays per mechanism under load.

The production-facing dual of the paper's §5 client-cost analysis: the
synthetic client fleet (:mod:`repro.serve.fleet`) replays the browser
cohorts against each registered mechanism's serving stack -- pre-signed
OCSP responder, CRL shard endpoints, aggregate delta distribution,
short-lived re-issuance -- and this experiment reports throughput, tail
latency (p50/p99/p999), bytes per client, and origin signing load, one
digested block per mechanism
(``tests/experiments/golden/serving-*.json``).

A fault leg sweeps the flaky-responder probability on the OCSP fleet to
pin the shape the availability experiment predicts: tail latency is
weakly monotone (and availability strictly falling) as the responder
degrades.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.pipeline import MeasurementStudy
from repro.core.report import format_table
from repro.experiments.common import ExperimentResult, stage
from repro.net.faults import FaultKind, FaultPlan, FaultSpec
from repro.serve.fleet import ClientFleet, FleetConfig
from repro.serve.report import MechanismServingReport

EXPERIMENT_ID = "serving"
TITLE = "Serving-side cost under synthetic client load"

#: the fixed fleet shape behind the golden digests -- changing any of
#: these is a digest-visible event (scripts/update_golden.py).
FLEET_SESSIONS = 200_000
FLEET_TICKS = 24
FLEET_TICK_SECONDS = 900
FLEET_REPRESENTATIVES = 2
FLEET_CATALOG = 2_048

#: flaky-responder probabilities swept on the OCSP fleet.
FAULT_SWEEP = (0.0, 0.1, 0.3)


def fleet_config(study: MeasurementStudy) -> FleetConfig:
    """The experiment's pinned fleet configuration for ``study``."""
    return FleetConfig(
        sessions=FLEET_SESSIONS,
        ticks=FLEET_TICKS,
        tick_seconds=FLEET_TICK_SECONDS,
        representatives=FLEET_REPRESENTATIVES,
        catalog_size=FLEET_CATALOG,
        seed=study.calibration.seed,
    )


def sweep(study: MeasurementStudy) -> list[MechanismServingReport]:
    """One fleet run per mechanism in the study's suite (sweep order).

    Each report depends only on the substrate, the mechanism, and the
    pinned config -- never on which other mechanisms are registered --
    so per-block digests stay stable as the registry grows.
    """
    config = fleet_config(study)
    return [
        ClientFleet(study, mechanism, config, obs=study.obs).run()
        for mechanism in study.mechanism_suite
    ]


def serving_blocks(study: MeasurementStudy) -> dict[str, str]:
    """name -> rendered block, the contract behind
    :func:`repro.api.serve.serving_digests`."""
    return {report.mechanism: report.render_block() for report in sweep(study)}


def fault_sweep(study: MeasurementStudy, clean: MechanismServingReport) -> list[dict]:
    """The OCSP fleet under rising flaky-responder probability.

    ``clean`` is that fleet's report without faults, as :func:`sweep`
    ran it: the fault-free row reads it instead of running the fleet
    again (an empty fault plan delivers as no plan does).
    """
    config = fleet_config(study)
    rows = []
    for probability in FAULT_SWEEP:
        report = clean
        if probability:
            plan = FaultPlan(seed=config.seed)
            plan.add("*", FaultSpec(FaultKind.FLAKY, probability=probability))
            report = ClientFleet(
                study,
                _ocsp_like(study),
                replace(config, fault_plan=plan),
                obs=study.obs,
            ).run()
        rows.append(
            {
                "probability": probability,
                "p99_ms": report.latency.quantile(0.99),
                "availability": report.availability,
            }
        )
    return rows


def _ocsp_like(study: MeasurementStudy):
    """The OCSP mechanism if swept, else the first network mechanism."""
    for mechanism in study.mechanism_suite:
        if mechanism.name == "ocsp":
            return mechanism
    for mechanism in study.mechanism_suite:
        if mechanism.serve_model().serves_online:
            return mechanism
    return None


def run(study: MeasurementStudy) -> ExperimentResult:
    with stage(study, "serving_sweep"):
        reports = sweep(study)
    by_endpoint: dict[str, list[MechanismServingReport]] = {}
    for report in reports:
        by_endpoint.setdefault(report.endpoint, []).append(report)

    with stage(study, "serving_fault_sweep"):
        ocsp_like = _ocsp_like(study)
        fault_rows = []
        if ocsp_like is not None:
            (clean,) = [r for r in reports if r.mechanism == ocsp_like.name]
            fault_rows = fault_sweep(study, clean)

    rendered = "\n\n".join(report.render_block() for report in reports)
    if fault_rows:
        table = format_table(
            ["flaky p", "p99", "availability"],
            [
                [
                    f"{row['probability']:.2f}",
                    f"{row['p99_ms']:,.1f} ms",
                    f"{row['availability']:.2%}",
                ]
                for row in fault_rows
            ],
            title="OCSP responder under flaky faults:",
        )
        rendered = f"{rendered}\n\n{table}"

    result = ExperimentResult(
        EXPERIMENT_ID,
        TITLE,
        rendered,
        data={
            "requests": {r.mechanism: r.requests for r in reports},
            "bytes_per_client": {
                r.mechanism: r.bytes_per_client for r in reports
            },
            "p99_ms": {
                r.mechanism: r.latency.quantile(0.99) for r in reports
            },
            "origin_signings": {
                r.mechanism: r.origin_signings for r in reports
            },
            "fault_sweep": fault_rows,
        },
    )

    # Shape comparisons key on endpoint class, never a hard-coded
    # mechanism list, so run --mechanism restrictions degrade gracefully.
    pulled = by_endpoint.get("ocsp", []) + by_endpoint.get("crl", [])
    pushed = by_endpoint.get("aggregate", [])
    if pulled and pushed:
        cheapest_pull = min(r.bytes_per_client for r in pulled)
        dearest_push = max(r.bytes_per_client for r in pushed)
        result.compare(
            "pushed aggregates undercut per-visit pulls on bytes/client",
            "aggregate < pull-per-visit",
            f"{dearest_push:,.0f} vs {cheapest_pull:,.0f} B/client",
            shape_holds=dearest_push < cheapest_pull,
        )
    for report in by_endpoint.get("staple", []):
        hits = sum(s.hits for s in report.cache_stats.values())
        lookups = sum(s.lookups for s in report.cache_stats.values())
        if lookups == 0:
            continue
        result.compare(
            f"{report.mechanism}: staple reuse absorbs handshake load",
            "cache tiers absorb the majority of lookups",
            f"{hits / lookups:.2%} hit rate",
            shape_holds=hits / lookups > 0.50,
        )
    ocsp_reports = by_endpoint.get("ocsp", [])
    for report in by_endpoint.get("issuance", []):
        if not ocsp_reports:
            break
        ocsp_bytes = max(r.origin_bytes for r in ocsp_reports)
        result.compare(
            f"{report.mechanism}: re-issuance outweighs responder signing",
            "signed bytes > cached OCSP responder's",
            f"{report.origin_bytes:,} vs {ocsp_bytes:,} B",
            shape_holds=report.origin_bytes > ocsp_bytes,
        )
    if len(fault_rows) >= 2:
        p99s = [row["p99_ms"] for row in fault_rows]
        avail = [row["availability"] for row in fault_rows]
        result.compare(
            "tail latency monotone under rising fault probability",
            "p99 weakly increasing, availability strictly falling",
            f"p99 {['%.0f' % value for value in p99s]}, "
            f"avail {['%.3f' % value for value in avail]}",
            shape_holds=all(a <= b for a, b in zip(p99s, p99s[1:]))
            and all(a > b for a, b in zip(avail, avail[1:])),
        )
    return result
