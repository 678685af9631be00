"""The column generator against the scalar generator it replaced, in
distribution.

Drawing whole columns changed which words feed which value, so no corpus
value can be compared with the scalar generator's (``scalar_generator.py``,
one ``random.Random`` call per value); the distributions can.  At scale
0.01 (about 51 k leaves) and seeds 20151028 and 7, both generators build
every brand on the same scaffold, and:

- each share of the Leaf Set (EV, OCSP, CRL pointer, each death branch,
  all/partial/no stapling, each validity-mix entry, each server-count
  entry, each issue year, and revoked inside the Heartbleed window)
  differs by at most 4 binomial standard errors of a difference of two
  samples, ``4 * sqrt(p * (1 - p) * 2 / n)`` at the pooled share ``p``;
- the mean birth lag differs by at most 4 standard errors of a
  difference of means;
- each brand revokes exactly as many leaves.

The bounds follow from the sample sizes alone; none is set per seed.
The death branches are read off the columns before any revocation
moves a death: more than 21 days before expiry (mid-life replacement),
within the 21 days up to expiry, or past it.
"""

from __future__ import annotations

import datetime
import math

import numpy as np
import pytest

from repro.ca.profiles import PAPER_CA_PROFILES
from repro.scan import shardgen
from repro.scan.calibration import Calibration
from tests.scan.scalar_generator import scalar_leaves, scalar_revocations

#: standard errors a share or mean may differ by.
BOUND_SE = 4.0


def _leaf_masks(cal: Calibration, columns: dict) -> dict:
    """Named row masks of the Leaf Set whose shares must agree."""
    servers, stapling = columns["server_count"], columns["stapling"]
    not_before, not_after = columns["not_before"], columns["not_after"]
    validity = not_after - not_before
    gap = columns["death"] - not_after
    new_years = [datetime.date(year, 1, 1).toordinal() for year in range(2011, 2017)]
    year = np.searchsorted(new_years, not_before, side="right") + 2010
    return {
        "ev": columns["is_ev"] == 1,
        "ocsp": columns["has_ocsp"] == 1,
        "crl pointer": columns["crl"] >= 0,
        "death mid-life": gap < -21,
        "death by expiry": (-21 <= gap) & (gap <= 0),
        "death past expiry": gap > 0,
        "stapling all": stapling == servers,
        "stapling partial": (0 < stapling) & (stapling < servers),
        "stapling none": stapling == 0,
        **{f"validity {days}": validity == days for days, _ in cal.validity_mix},
        **{
            f"servers {low}-{high}": (low <= servers) & (servers <= high)
            for low, high, _ in cal.server_count_mix
        },
        **{f"issued {y}": year == y for y in range(2011, 2016)},
    }


def _generate(cal: Calibration, leaves_of, revoke) -> dict:
    """Every brand's leaves and revocations by one generator: the
    pre-revocation masks, the birth lags, the Heartbleed-window mask
    and the per-brand revoked totals."""
    root_cas, _ = shardgen.build_roots(cal, PAPER_CA_PROFILES)
    runs = []
    for profile, layout in zip(
        PAPER_CA_PROFILES, shardgen.layout_brands(cal, PAPER_CA_PROFILES)
    ):
        state = shardgen.build_brand_scaffold(
            cal, profile, layout, root_cas[profile.name]
        )
        runs.append((profile.name, state, leaves_of(cal, state)))
    merged = {
        name: np.concatenate([getattr(leaves, name) for _, _, leaves in runs])
        for name in ("not_before", "not_after", "birth", "death", "is_ev",
                     "has_ocsp", "crl", "server_count", "stapling")
    }
    masks = _leaf_masks(cal, merged)
    revoked_totals = {}
    for name, state, leaves in runs:
        revoke(cal, state, leaves)
        revoked_totals[name] = int(np.count_nonzero(leaves.revoked))
    revoked = np.concatenate([leaves.revoked for _, _, leaves in runs])
    heartbleed = cal.heartbleed_date.toordinal()
    masks["revoked in the Heartbleed window"] = (heartbleed <= revoked) & (
        revoked <= heartbleed + cal.heartbleed_window_days
    )
    return {
        "masks": masks,
        "lags": merged["birth"] - merged["not_before"],
        "revoked": revoked_totals,
    }


@pytest.mark.parametrize("seed", [20151028, 7])
def test_column_generator_matches_the_scalar_one_in_distribution(seed):
    cal = Calibration(scale=0.01, seed=seed)
    columns = _generate(
        cal, shardgen.build_brand_leaves, shardgen.assign_brand_revocations
    )
    scalar = _generate(cal, scalar_leaves, scalar_revocations)
    n = len(columns["lags"])
    assert n == len(scalar["lags"]) > 50_000

    problems = []
    for name, mask in columns["masks"].items():
        ours, theirs = int(mask.sum()), int(scalar["masks"][name].sum())
        pooled = (ours + theirs) / (2 * n)
        bound = BOUND_SE * math.sqrt(pooled * (1 - pooled) * 2 / n)
        if abs(ours - theirs) / n > bound:
            problems.append(
                f"{name}: {ours / n:.5f} vs {theirs / n:.5f} (bound {bound:.5f})"
            )
    lags, scalar_lags = columns["lags"], scalar["lags"]
    spread = math.sqrt((lags.var() + scalar_lags.var()) / n)
    if abs(lags.mean() - scalar_lags.mean()) > BOUND_SE * spread:
        problems.append(
            f"birth lag: {lags.mean():.4f} vs {scalar_lags.mean():.4f} "
            f"(bound {BOUND_SE * spread:.4f})"
        )
    assert not problems, problems
    assert columns["revoked"] == scalar["revoked"]
    # The masks are not vacuous: every share the calibration names occurs.
    assert all(mask.any() for mask in columns["masks"].values())
