"""Scale invariance: the calibration contract across corpus sizes.

The paper's fractions must hold whether the corpus has 5 k or 20 k
certificates; absolute per-CRL sizes must hold too (that is the point of
scaling shard counts with the corpus).
"""

from __future__ import annotations

import pytest

from repro.scan.calibration import Calibration
from repro.scan.ecosystem import Ecosystem


@pytest.fixture(scope="module")
def small():
    return Ecosystem(Calibration(scale=0.001))


@pytest.fixture(scope="module")
def large():
    return Ecosystem(Calibration(scale=0.004))


def _fresh_revoked(eco):
    end = eco.calibration.measurement_end
    fresh = eco.leaf_records(eco.leaves.fresh_mask(end))
    return sum(1 for l in fresh if l.is_revoked_by(end)) / len(fresh)


class TestScaleInvariance:
    def test_leaf_counts_scale_linearly(self, small, large):
        ratio = len(large.leaves) / len(small.leaves)
        assert 3.5 <= ratio <= 4.5

    def test_fresh_revoked_fraction_stable(self, small, large):
        assert abs(_fresh_revoked(small) - _fresh_revoked(large)) < 0.025

    def test_pointer_fractions_stable(self, small, large):
        for eco in (small, large):
            ocsp = sum(1 for l in eco.leaf_records() if l.has_ocsp) / len(eco.leaves)
            assert 0.90 <= ocsp <= 0.99

    def test_per_crl_sizes_scale_invariant(self, small, large):
        """Per-CRL byte sizes are absolute quantities: the weighted median
        must not shrink with the corpus."""
        from repro.core.stats import weighted_cdf

        def weighted_median(eco):
            end = eco.calibration.measurement_end
            return weighted_cdf(
                (crl.size_bytes(end), crl.assigned_cert_count) for crl in eco.crls
            ).median

        small_median = weighted_median(small)
        large_median = weighted_median(large)
        assert 0.25 <= small_median / large_median <= 4.0

    def test_crl_count_scales_sublinearly(self, small, large):
        ratio = len(large.crls) / len(small.crls)
        leaf_ratio = len(large.leaves) / len(small.leaves)
        assert 1.0 < ratio <= leaf_ratio
