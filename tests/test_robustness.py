"""Cross-seed robustness and determinism guarantees.

The calibration bands must hold for *any* seed (the defaults didn't just
get lucky), and identical configurations must produce identical results
(the reproduction is a function, not a sample).
"""

from __future__ import annotations

import datetime

import pytest

from repro import MeasurementStudy
from repro.scan.calibration import Calibration
from repro.scan.ecosystem import Ecosystem


@pytest.fixture(scope="module", params=[7, 424242])
def seed(request):
    return request.param


@pytest.fixture(scope="module")
def eco(seed):
    return Ecosystem(Calibration(scale=0.001, seed=seed))


class TestSeedRobustness:
    def test_revocation_bands_hold(self, eco, seed):
        end = eco.calibration.measurement_end
        fresh = eco.leaf_records(eco.leaves.fresh_mask(end))
        fraction = sum(1 for l in fresh if l.is_revoked_by(end)) / len(fresh)
        assert 0.04 <= fraction <= 0.14, seed

    def test_heartbleed_spike_holds(self, eco, seed):
        before = datetime.date(2014, 3, 1)
        after = datetime.date(2014, 5, 15)
        fb = eco.leaf_records(eco.leaves.fresh_mask(before))
        fa = eco.leaf_records(eco.leaves.fresh_mask(after))
        rb = sum(1 for l in fb if l.is_revoked_by(before)) / len(fb)
        ra = sum(1 for l in fa if l.is_revoked_by(after)) / len(fa)
        assert ra > 3 * rb, seed

    def test_pointer_bands_hold(self, eco, seed):
        ocsp = sum(1 for l in eco.leaf_records() if l.has_ocsp) / len(eco.leaves)
        crl = sum(1 for l in eco.leaf_records() if l.has_crl) / len(eco.leaves)
        assert crl > 0.98 and 0.88 <= ocsp <= 0.99, seed


class TestDeterminism:
    def test_identical_studies_identical_series(self):
        a = MeasurementStudy(scale=0.0005, seed=123)
        b = MeasurementStudy(scale=0.0005, seed=123)
        series_a = a.revocation_series()
        series_b = b.revocation_series()
        assert series_a.fresh_revoked_all == series_b.fresh_revoked_all
        assert series_a.alive_revoked_ev == series_b.alive_revoked_ev

    def test_crlset_history_internally_consistent(self, study, crlset_history):
        end = study.calibration.measurement_end
        assert (
            crlset_history.final_snapshot.entry_count
            == crlset_history.daily_entry_counts[end]
        )
        # Net additions minus removals over the sweep must equal the final
        # count (membership starts empty).
        net = sum(crlset_history.daily_additions.values()) - sum(
            crlset_history.daily_removals.values()
        )
        assert net == crlset_history.final_snapshot.entry_count
