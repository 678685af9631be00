#!/usr/bin/env python3
"""Heartbleed retrospective: what a mass-revocation event does to the
revocation ecosystem.

The paper's Figure 2 spike comes from April 2014, when Heartbleed forced
administrators to revoke at ~10x the steady-state rate.  This example
walks the same event inside the simulation, measuring each party's load:

* administrators -- how the revocation rate and the revoked-but-still-
  advertised population move;
* CAs -- how much bigger the CRLs get (bytes a client must download);
* clients -- how many users of a never-checking (mobile) browser would
  have accepted a revoked certificate at the peak.

Run:  python examples/heartbleed_retrospective.py
"""

import datetime

from repro import MeasurementStudy
from repro.core.report import format_bytes, format_table, render_series


def main() -> None:
    study = MeasurementStudy(scale=0.002)
    eco = study.ecosystem
    cal = study.calibration
    heartbleed = cal.heartbleed_date

    # -- administrator behaviour around the event ------------------------
    print("Revocations per week around Heartbleed (2014-04-07):")
    weeks = [heartbleed + datetime.timedelta(days=7 * i) for i in range(-4, 9)]
    series = []
    for week_start in weeks:
        week_end = week_start + datetime.timedelta(days=7)
        count = _revoked_between(eco, week_start, week_end)
        series.append((week_start, float(count)))
    print(render_series(series, value_format="{:,.0f}"))

    # -- CA-side load: CRL bytes before vs after -------------------------
    before = heartbleed - datetime.timedelta(days=14)
    after = heartbleed + datetime.timedelta(days=45)
    size_before = sum(study.crl_sizes(before).values())
    size_after = sum(study.crl_sizes(after).values())
    print("\nTotal bytes a client auditing every CRL would download:")
    print(
        format_table(
            ["date", "all CRLs combined"],
            [
                (before, format_bytes(size_before)),
                (after, format_bytes(size_after)),
                ("growth", f"+{(size_after / size_before - 1):.1%}"),
            ],
        )
    )

    # -- client exposure --------------------------------------------------
    peak = heartbleed + datetime.timedelta(days=30)
    alive_mask = eco.leaves.alive_mask(peak)
    alive_peak = int(alive_mask.sum())
    exposed = int((alive_mask & eco.leaves.revoked_mask(peak)).sum())
    print(
        f"\nAt the peak ({peak}), {exposed} of {alive_peak:,} "
        f"advertised certificates ({exposed / alive_peak:.2%}) were "
        "already revoked."
    )
    print(
        "A mobile browser (which never checks revocations, paper §6.4) would\n"
        "have accepted every one of them; so would any desktop browser whose\n"
        "path to the CA was blocked by an attacker (soft-fail, paper §2.3)."
    )

    # How long did the elevated rate last?
    pre_rate = _weekly_rate(eco, heartbleed - datetime.timedelta(days=28), 4)
    for lag_weeks in (4, 8, 12, 20):
        probe = heartbleed + datetime.timedelta(days=7 * lag_weeks)
        rate = _weekly_rate(eco, probe, 2)
        if rate <= 2 * pre_rate:
            print(
                f"\nRevocation volume returned to ~steady state about "
                f"{lag_weeks} weeks after disclosure (paper: owners "
                '"quickly returned to pre-Heartbleed behaviors").'
            )
            break


def _revoked_between(eco, start: datetime.date, end: datetime.date) -> int:
    """Certificates revoked on a day in [start, end): a difference of
    two of the Leaf Set's "revoked by" masks."""
    last_day = end - datetime.timedelta(days=1)
    day_before = start - datetime.timedelta(days=1)
    leaves = eco.leaves
    revoked = leaves.revoked_mask(last_day) & ~leaves.revoked_mask(day_before)
    return int(revoked.sum())


def _weekly_rate(eco, start: datetime.date, weeks: int) -> float:
    end = start + datetime.timedelta(days=7 * weeks)
    return _revoked_between(eco, start, end) / weeks


if __name__ == "__main__":
    main()
