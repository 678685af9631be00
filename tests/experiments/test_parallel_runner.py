"""Parallel ``run_all`` must reproduce the sequential results exactly; a
study's ``cache_dir`` store must round-trip ecosystems keyed on the
calibration, and a damaged store must heal once, before the workers
load it."""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from repro import api
from repro.core.pipeline import MeasurementStudy
from repro.exec import supervisor
from repro.experiments.runner import ALL_EXPERIMENTS, run_all
from repro.scan import corpus, corpus_store
from repro.scan.calibration import Calibration, calibration_digest
from tests.scan.test_corpus_store import flip_blob_byte, traced_study

#: the scale of the garbage-file cases, which only need some corpus.
SMALL = Calibration(scale=0.0005)


@pytest.fixture(scope="module")
def sequential(calibration):
    # A fresh study: the stapling scanner's RNG is stateful, so a shared
    # session study that already served other tests would diverge.
    return run_all(MeasurementStudy(calibration=calibration))


@pytest.fixture(scope="module")
def small_digest(tmp_path_factory) -> str:
    directory = tmp_path_factory.mktemp("fresh")
    return api.corpus.build(directory, calibration=SMALL)["corpus_digest"]


def assert_same_results(expected, actual) -> None:
    assert len(expected) == len(actual) == len(ALL_EXPERIMENTS)
    for seq, par in zip(expected, actual):
        assert seq.experiment_id == par.experiment_id
        assert seq.data == par.data
        assert seq.rendered == par.rendered
        assert seq.comparisons == par.comparisons


def substrate_sources(study: MeasurementStudy) -> list[str]:
    """The ``source`` of every ecosystem load in the study's trace."""
    return [
        record["attrs"]["source"]
        for record in study.obs.tracer.records()
        if record["name"] == "substrate.ecosystem"
    ]


class TestParallelRunner:
    def test_parallel_equals_sequential(self, calibration, sequential):
        parallel = run_all(MeasurementStudy(calibration=calibration), parallel=2)
        assert_same_results(sequential, parallel)

    def test_parallel_one_falls_back_to_sequential(self, study, monkeypatch):
        # parallel=1 must not pay process-pool overhead: starting a
        # worker process fails the test.
        def no_worker(*args, **kwargs):
            raise AssertionError("parallel=1 started a worker process")

        monkeypatch.setattr(supervisor, "_Worker", no_worker)
        results = run_all(study, parallel=1)
        assert [r.experiment_id for r in results] == list(ALL_EXPERIMENTS)

    def test_damaged_store_heals_once_before_the_workers_load(
        self, calibration, sequential, tmp_path
    ):
        """The prewarm refuses a store with one flipped blob byte: it is
        quarantined and rewritten once, and every worker loads the new
        store instead of regenerating the corpus."""
        path = Path(api.corpus.build(tmp_path, calibration=calibration)["path"])
        flip_blob_byte(path)
        damaged = path.read_bytes()
        study = traced_study(calibration, tmp_path)
        assert_same_results(sequential, run_all(study, parallel=2))
        assert path.with_name(path.name + ".quarantined").read_bytes() == damaged
        assert api.corpus.verify(path) == []
        counters = study.obs.metrics.counter_snapshot()
        assert counters["artifact_cache.stores"] == 1
        loads = substrate_sources(study)
        assert loads and set(loads) == {"store"}
        assert counters["artifact_cache.hits"] == len(loads)


class TestArtifactCache:
    """The ``cache_dir`` corpus store, whose loads count as
    ``artifact_cache`` hits and misses."""

    def test_roundtrip(self, tmp_path):
        calibration = Calibration(scale=0.002)
        path = corpus_store.store_path(tmp_path, calibration)
        assert not path.exists()

        study = traced_study(calibration, tmp_path)
        ecosystem = study.ecosystem
        assert substrate_sources(study) == ["generated"]
        assert path.exists()

        again = traced_study(calibration, tmp_path)
        reloaded = again.ecosystem
        assert substrate_sources(again) == ["store"]
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
        # Non-scale/seed fields must also reach another store.
        field = next(
            f.name
            for f in dataclasses.fields(Calibration)
            if f.name not in ("scale", "seed") and isinstance(f.default, int)
        )
        changed = dataclasses.replace(base, **{field: getattr(base, field) + 1})
        assert calibration_digest(base) != calibration_digest(changed)
        assert corpus_store.store_path("d", base) != corpus_store.store_path(
            "d", changed
        )

    @pytest.mark.parametrize(
        "garbage",
        [b"not a pickle", b"garbage\n", b"", b"\x80\x05truncated"],
    )
    def test_corrupt_entry_is_a_miss(self, tmp_path, garbage, small_digest):
        # sqlite and the decoder raise arbitrary exception types on
        # corrupt input; an unreadable store is never reused, never an
        # error: it is quarantined and the corpus rebuilt.
        path = corpus_store.store_path(tmp_path, SMALL)
        path.write_bytes(garbage)
        study = traced_study(SMALL, tmp_path)
        ecosystem = study.ecosystem
        assert substrate_sources(study) == ["generated"]
        assert path.with_name(path.name + ".quarantined").read_bytes() == garbage
        assert corpus_store.verify_store(path) == []
        assert corpus.corpus_digest(corpus.encode_corpus(ecosystem)[0]) == (
            small_digest
        )
        assert corpus_store.read_meta(path)["corpus_digest"] == small_digest

    def test_cache_dir_is_a_file_reads_as_miss(self, tmp_path):
        target = tmp_path / "notadir"
        target.write_text("occupied")
        study = traced_study(SMALL, target)
        # The read is a miss, not a crash; no store can then be written
        # under a file, and that write fails loudly.
        with pytest.raises(OSError):
            study.ecosystem
        counters = study.obs.metrics.counter_snapshot()
        assert counters["artifact_cache.misses"] == 1
        assert "artifact_cache.hits" not in counters
        assert target.read_text() == "occupied"
