"""Parallel ``run_all`` must reproduce the sequential results exactly,
and the artifact cache must round-trip ecosystems keyed on calibration."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.pipeline import MeasurementStudy
from repro.exec import supervisor
from repro.experiments.runner import ALL_EXPERIMENTS, run_all
from repro.scan.calibration import Calibration
from repro.scan.datastore import ArtifactCache, calibration_digest


class TestParallelRunner:
    def test_parallel_equals_sequential(self, calibration):
        # Both legs start from fresh studies: the stapling scanner's RNG
        # is stateful, so a shared session study that already served
        # other tests would make the sequential leg diverge.
        sequential = run_all(MeasurementStudy(calibration=calibration))
        parallel = run_all(MeasurementStudy(calibration=calibration), parallel=2)
        assert len(sequential) == len(parallel) == len(ALL_EXPERIMENTS)
        for seq, par in zip(sequential, parallel):
            assert seq.experiment_id == par.experiment_id
            assert seq.data == par.data
            assert seq.rendered == par.rendered
            assert seq.comparisons == par.comparisons

    def test_parallel_one_falls_back_to_sequential(self, study, monkeypatch):
        # parallel=1 must not pay process-pool overhead: starting a
        # worker process fails the test.
        def no_worker(*args, **kwargs):
            raise AssertionError("parallel=1 started a worker process")

        monkeypatch.setattr(supervisor, "_Worker", no_worker)
        results = run_all(study, parallel=1)
        assert [r.experiment_id for r in results] == list(ALL_EXPERIMENTS)


class TestArtifactCache:
    def test_roundtrip(self, tmp_path):
        calibration = Calibration(scale=0.002)
        cache = ArtifactCache(tmp_path)
        assert cache.load_ecosystem(calibration) is None

        study = MeasurementStudy(calibration=calibration, cache_dir=tmp_path)
        ecosystem = study.ecosystem
        assert cache.ecosystem_path(calibration).exists()

        reloaded = cache.load_ecosystem(calibration)
        assert reloaded is not None
        assert len(reloaded.leaves) == len(ecosystem.leaves)
        assert [c.url for c in reloaded.crls] == [c.url for c in ecosystem.crls]
        day = calibration.crawl_end
        assert [c.series.entry_count(day) for c in reloaded.crls] == [
            c.series.entry_count(day) for c in ecosystem.crls
        ]

    def test_digest_covers_every_field(self):
        base = Calibration(scale=0.002)
        assert calibration_digest(base) == calibration_digest(Calibration(scale=0.002))
        assert calibration_digest(base) != calibration_digest(
            Calibration(scale=0.002, seed=1)
        )
        # Non-scale/seed fields must also miss the cache.
        field = next(
            f.name
            for f in dataclasses.fields(Calibration)
            if f.name not in ("scale", "seed") and isinstance(f.default, int)
        )
        changed = dataclasses.replace(base, **{field: getattr(base, field) + 1})
        assert calibration_digest(base) != calibration_digest(changed)

    @pytest.mark.parametrize(
        "garbage",
        [b"not a pickle", b"garbage\n", b"", b"\x80\x05truncated"],
    )
    def test_corrupt_entry_is_a_miss(self, tmp_path, garbage):
        # pickle raises arbitrary exception types on corrupt input; any
        # unreadable entry must read as a miss, never an error.
        calibration = Calibration(scale=0.002)
        cache = ArtifactCache(tmp_path)
        path = cache.ecosystem_path(calibration)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(garbage)
        assert cache.load_ecosystem(calibration) is None

    def test_cache_dir_is_a_file_reads_as_miss(self, tmp_path):
        target = tmp_path / "notadir"
        target.write_text("occupied")
        cache = ArtifactCache(target)
        assert cache.load_ecosystem(Calibration(scale=0.002)) is None
