"""The serving fault sweep's fault-free row reads the sweep's report.

``serving.run`` hands :func:`serving.fault_sweep` the report that
:func:`serving.sweep` already ran for the OCSP-like mechanism, instead of
running that fleet again under an empty fault plan.  That is sound only
while the two render alike, so both are compared here, for the ``ocsp``
mechanism and for the fallback a suite without it picks.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.pipeline import MeasurementStudy
from repro.experiments import serving
from repro.net.faults import FaultPlan
from repro.serve.fleet import ClientFleet


@pytest.mark.parametrize(
    "mechanisms, expected",
    [(None, "ocsp"), (("crlset", "crl", "ocsp-stapling"), "crlset")],
)
def test_clean_row_equals_a_fresh_empty_plan_run(
    calibration, mechanisms, expected
):
    study = MeasurementStudy(calibration=calibration, mechanisms=mechanisms)
    mechanism = serving._ocsp_like(study)
    assert mechanism.name == expected
    (clean,) = [r for r in serving.sweep(study) if r.mechanism == expected]
    config = serving.fleet_config(study)
    fresh = ClientFleet(
        study,
        mechanism,
        replace(config, fault_plan=FaultPlan(seed=config.seed)),
        obs=study.obs,
    ).run()
    assert clean.render_block() == fresh.render_block()
    # Every row, the faulted ones after it included, is what running the
    # clean fleet again would give.
    reused = serving.fault_sweep(study, clean)
    assert reused == serving.fault_sweep(study, fresh)
    assert not reused[0]["probability"]
