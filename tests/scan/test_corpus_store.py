"""Out-of-core corpus store round-trip lockdown.

Generate -> persist (SQLite columnar store) -> reload must reproduce the
corpus byte-for-byte: same corpus digest, same report bytes.  A store
that is missing, unreadable, damaged or malformed is never reused: the
builder quarantines it and rebuilds the same corpus, on every path
(``corpus build``, a study's ``cache_dir``), and never crashes --
``run_all`` workers depend on that.
"""

from __future__ import annotations

import contextlib
import datetime
import json
import shutil
import sqlite3
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.__main__ import main
from repro.core.pipeline import MeasurementStudy
from repro.exec.corpusbuild import build_corpus, reuse_or_build
from repro.obs import Observability
from repro.scan import corpus, corpus_store
from repro.scan.calibration import Calibration
from repro.scan.ecosystem import Ecosystem

SCALE = 0.0005


@pytest.fixture(scope="module")
def calibration() -> Calibration:
    return Calibration(scale=SCALE)


@pytest.fixture(scope="module")
def generated(calibration) -> Ecosystem:
    return Ecosystem(calibration)


@pytest.fixture(scope="module")
def store_path(calibration, generated, tmp_path_factory):
    path = corpus_store.store_path(tmp_path_factory.mktemp("store"), calibration)
    arrays, meta = corpus.encode_corpus(generated)
    return corpus_store.write_verified(path, arrays, meta)


@pytest.fixture(scope="module")
def fresh_digest(store_path) -> str:
    return corpus_store.read_meta(store_path)["corpus_digest"]


@pytest.fixture(scope="module")
def reloaded(calibration, store_path) -> Ecosystem:
    arrays, meta = corpus_store.read_corpus(store_path)
    return Ecosystem.from_corpus(calibration, arrays, meta)


@pytest.fixture(scope="module")
def from_workers(calibration, tmp_path_factory) -> Ecosystem:
    """Built by the corpus builder's worker processes (their columnar
    parts merged through ``Ecosystem.from_parts``), read back from the
    store the builder wrote."""
    directory = tmp_path_factory.mktemp("workers")
    build_corpus(directory, calibration=calibration, workers=2)
    ecosystem, _, reused = reuse_or_build(
        directory, calibration, lambda: pytest.fail("regenerated"), decode=True
    )
    assert reused
    return ecosystem


@pytest.fixture(scope="module")
def decoded(reloaded, from_workers) -> dict[str, Ecosystem]:
    """Both build paths, read back: the in-process corpus and the one
    merged from worker-built parts."""
    return {"store": reloaded, "workers": from_workers}


def flip_blob_byte(path: Path, column: str = "leaf_not_after") -> None:
    """Flip one byte of a column blob in place; sqlite still opens the
    file, so only the content digests can tell."""
    with contextlib.closing(sqlite3.connect(path)) as connection:
        (data,) = connection.execute(
            "SELECT data FROM arrays WHERE name = ?", (column,)
        ).fetchone()
        flipped = bytearray(data)
        flipped[len(flipped) // 2] ^= 0x01
        connection.execute(
            "UPDATE arrays SET data = ? WHERE name = ?", (bytes(flipped), column)
        )
        connection.commit()


def set_meta(path: Path, key: str, value) -> None:
    """Overwrite one meta value in place (no digest is recomputed)."""
    with contextlib.closing(sqlite3.connect(path)) as connection:
        connection.execute(
            "UPDATE meta SET value = ? WHERE key = ?", (json.dumps(value), key)
        )
        connection.commit()


def traced_study(calibration, directory) -> MeasurementStudy:
    return MeasurementStudy(
        calibration=calibration,
        cache_dir=directory,
        obs=Observability(enabled=True),
    )


def source(study: MeasurementStudy) -> str:
    """Where the study's ecosystem came from: ``store`` or ``generated``."""
    (span,) = [
        record
        for record in study.obs.tracer.records()
        if record["name"] == "substrate.ecosystem"
    ]
    return span["attrs"]["source"]


def assert_build_heals(directory, calibration, fresh_digest) -> None:
    """``corpus build`` does not reuse the store under ``directory``: it
    quarantines it byte for byte and writes a sound store holding the
    fresh build's corpus."""
    path = corpus_store.store_path(directory, calibration)
    damaged = path.read_bytes()
    info = build_corpus(directory, calibration=calibration)
    assert info["reused"] is False
    assert info["corpus_digest"] == fresh_digest
    assert path.with_name(path.name + ".quarantined").read_bytes() == damaged
    assert corpus_store.verify_store(path) == []


def assert_study_heals(directory, calibration, fresh_digest) -> None:
    """A study with that ``cache_dir`` does the same, and generates the
    ecosystem it returns."""
    path = corpus_store.store_path(directory, calibration)
    damaged = path.read_bytes()
    study = traced_study(calibration, directory)
    ecosystem = study.ecosystem
    assert source(study) == "generated"
    assert corpus.corpus_digest(corpus.encode_corpus(ecosystem)[0]) == fresh_digest
    assert path.with_name(path.name + ".quarantined").read_bytes() == damaged
    assert corpus_store.verify_store(path) == []
    assert corpus_store.read_meta(path)["corpus_digest"] == fresh_digest


class TestRoundTrip:
    def test_corpus_digest_survives_the_store(self, generated, decoded):
        original = corpus.corpus_digest(corpus.encode_corpus(generated)[0])
        for path, ecosystem in decoded.items():
            restored = corpus.corpus_digest(corpus.encode_corpus(ecosystem)[0])
            assert restored == original, path

    def test_leaf_records_are_equal(self, generated, decoded):
        expected = generated.leaf_records()
        for path, ecosystem in decoded.items():
            assert len(ecosystem.leaves) == len(generated.leaves), path
            for a, b in zip(expected, ecosystem.leaf_records(), strict=True):
                assert a == b, (path, a.cert_id)

    def test_intermediate_ids_are_positional(self, generated, decoded):
        for path, ecosystem in {"generated": generated, **decoded}.items():
            ids = [record.intermediate_id for record in ecosystem.intermediates]
            assert ids and ids == list(range(len(ids))), path

    def test_leaf_columns_are_equal(self, generated, decoded):
        for path, ecosystem in decoded.items():
            assert list(ecosystem.brands) == list(generated.brands), path
            expected = generated.leaves.arrays()
            for name, column in ecosystem.leaves.arrays().items():
                assert column.dtype == expected[name].dtype, (path, name)
                assert column.shape == expected[name].shape, (path, name)
                assert np.array_equal(column, expected[name]), (path, name)

    def test_crl_population_is_equal(self, generated, decoded):
        for path, ecosystem in decoded.items():
            assert len(ecosystem.crls) == len(generated.crls), path
            for a, b in zip(generated.crls, ecosystem.crls):
                assert a.url == b.url, path
                assert a.assigned_cert_count == b.assigned_cert_count, (path, a.url)
                for name in ("serial", "revoked", "reason", "expiry", "cert"):
                    left, right = getattr(a.entries, name), getattr(b.entries, name)
                    assert left.dtype == right.dtype, (path, a.url, name)
                    assert left.shape == right.shape, (path, a.url, name)
                    assert np.array_equal(left, right), (path, a.url, name)

    def test_hidden_populations_agree_on_every_day(self, generated, decoded):
        for path, ecosystem in decoded.items():
            pairs = [
                (a.hidden, b.hidden)
                for a, b in zip(generated.crls, ecosystem.crls)
                if a.hidden is not None or b.hidden is not None
            ]
            assert pairs, path  # the corpus has bulk-modelled CRLs
            for a, b in pairs:
                assert a is not None and b is not None, path
                window = (a.window_start, a.window_end)
                assert (b.window_start, b.window_end) == window, path
                day = a.window_start
                while day <= a.window_end:
                    assert b.count_at(day) == a.count_at(day), (path, day)
                    assert b.additions_on(day) == a.additions_on(day), (path, day)
                    assert b.removals_on(day) == a.removals_on(day), (path, day)
                    day += datetime.timedelta(days=1)

    def test_meta_describes_the_corpus(self, store_path, generated):
        meta = corpus_store.read_meta(store_path)
        assert meta["format"] == corpus.CORPUS_FORMAT
        assert meta["leaf_count"] == len(generated.leaves)
        assert meta["scale"] == repr(SCALE)

    def test_no_temp_files_left_behind(self, store_path):
        leftovers = [
            p for p in store_path.parent.iterdir() if p.name != store_path.name
        ]
        assert leftovers == []


class TestReportBytesUnchanged:
    """In-memory vs store-backed study: identical report bytes."""

    @pytest.fixture(scope="class")
    def in_memory(self, calibration) -> MeasurementStudy:
        return MeasurementStudy(calibration=calibration)

    @pytest.fixture(scope="class")
    def store_backed(self, calibration, tmp_path_factory) -> MeasurementStudy:
        cache_dir = tmp_path_factory.mktemp("warm")
        # First study populates the store; the one under test only reads.
        MeasurementStudy(calibration=calibration, cache_dir=cache_dir).ecosystem
        return MeasurementStudy(calibration=calibration, cache_dir=cache_dir)

    @pytest.mark.parametrize("experiment_id", ["section3", "fig2", "fig7"])
    def test_report_render_is_byte_identical(
        self, in_memory, store_backed, experiment_id
    ):
        a = api.study.run_one(experiment_id, in_memory).render()
        b = api.study.run_one(experiment_id, store_backed).render()
        assert a == b

    def test_scans_are_identical(self, in_memory, store_backed):
        assert in_memory.scans == store_backed.scans


class TestMissSemantics:
    """A store that is not there, or not a corpus store, is a miss: it is
    never reused, the build quarantines what it found and rebuilds the
    same corpus, and nothing raises."""

    def test_missing_store_is_a_miss(self, calibration, fresh_digest, tmp_path):
        info = build_corpus(tmp_path, calibration=calibration)
        assert info["reused"] is False
        assert info["corpus_digest"] == fresh_digest
        # Nothing was there, so nothing is quarantined.
        assert [p.name for p in tmp_path.iterdir()] == [Path(info["path"]).name]

    def test_garbage_store_is_a_miss(self, calibration, fresh_digest, tmp_path):
        path = corpus_store.store_path(tmp_path, calibration)
        path.write_bytes(b"not a sqlite file")
        assert corpus_store.verify_store(path)
        assert_build_heals(tmp_path, calibration, fresh_digest)

    def test_schema_mismatch_is_a_miss(self, calibration, fresh_digest, tmp_path):
        path = corpus_store.store_path(tmp_path, calibration)
        connection = sqlite3.connect(path)
        connection.execute("CREATE TABLE wrong (x)")
        connection.commit()
        connection.close()
        assert_build_heals(tmp_path, calibration, fresh_digest)

    def test_other_calibration_never_hits(self, calibration, store_path, tmp_path):
        path = corpus_store.store_path(tmp_path, calibration)
        shutil.copyfile(store_path, path)
        other = Calibration(scale=SCALE, seed=calibration.seed + 1)
        assert corpus_store.store_path(tmp_path, other) != path
        assert build_corpus(tmp_path, calibration=other)["reused"] is False
        assert build_corpus(tmp_path, calibration=calibration)["reused"] is True
        assert not list(tmp_path.glob("*.quarantined"))

    def test_other_calibration_under_this_name_is_a_miss(
        self, calibration, fresh_digest, tmp_path
    ):
        """A sound store whose meta names another seed is refused by the
        build, which does not decode, as the decoder would refuse it."""
        other = Calibration(scale=SCALE, seed=calibration.seed + 1)
        foreign = Path(build_corpus(tmp_path / "other", calibration=other)["path"])
        path = corpus_store.store_path(tmp_path, calibration)
        shutil.copyfile(foreign, path)
        assert corpus_store.verify_store(path) == []
        assert_build_heals(tmp_path, calibration, fresh_digest)


class TestCorruptionSemantics:
    """Damaged stores are verify findings and misses -- never exceptions
    (truncation, bit rot, tampered digests, torn writes, malformed meta
    values): every path quarantines them and rebuilds the same corpus."""

    @pytest.fixture()
    def path(self, calibration, store_path, tmp_path):
        """A pristine copy of the module's store file in a private
        directory (each test damages its own copy)."""
        target = corpus_store.store_path(tmp_path, calibration)
        shutil.copyfile(store_path, target)
        return target

    def test_pristine_copy_hits_and_verifies(self, calibration, path, tmp_path):
        assert corpus_store.verify_store(path) == []
        study = traced_study(calibration, tmp_path)
        study.ecosystem
        assert source(study) == "store"
        assert build_corpus(tmp_path, calibration=calibration)["reused"] is True
        assert not list(tmp_path.glob("*.quarantined"))

    def test_truncated_store_is_a_miss(
        self, calibration, path, tmp_path, fresh_digest
    ):
        with open(path, "r+b") as handle:
            handle.truncate(path.stat().st_size // 2)
        assert corpus_store.verify_store(path)
        assert_build_heals(tmp_path, calibration, fresh_digest)

    def test_flipped_byte_is_a_miss(self, calibration, path, tmp_path, fresh_digest):
        size = path.stat().st_size
        index = size // 2 + size // 4  # land in the column blobs
        with open(path, "r+b") as handle:
            handle.seek(index)
            original = handle.read(1)
            handle.seek(index)
            handle.write(bytes([original[0] ^ 0x01]))
        assert corpus_store.verify_store(path)
        assert_build_heals(tmp_path, calibration, fresh_digest)

    def test_tampered_brand_digest_is_a_miss(
        self, calibration, path, tmp_path, fresh_digest
    ):
        arrays, meta = corpus_store.read_corpus(path)
        brand = meta["brand_layouts"][0][0]
        meta["brand_digests"][brand] = "0" * 40
        corpus_store.write_corpus(path, arrays, meta)
        problems = corpus_store.verify_store(path)
        assert any(
            f"brand {brand}: slice digest mismatch" in p for p in problems
        )
        assert_build_heals(tmp_path, calibration, fresh_digest)

    def test_crash_mid_write_is_a_miss(
        self, calibration, path, tmp_path, fresh_digest
    ):
        partial = path.read_bytes()
        path.write_bytes(partial[: len(partial) // 3])
        problems = corpus_store.verify_store(path)
        assert problems and "unreadable" in problems[0]
        assert_build_heals(tmp_path, calibration, fresh_digest)

    def test_injected_write_faults_are_misses(
        self, calibration, path, tmp_path, fresh_digest
    ):
        from repro.exec.faults import plan_from_exec_profile

        arrays, meta = corpus_store.read_corpus(path)
        fault = plan_from_exec_profile("torn-write", seed=5).decide_write(
            "corpus", 0
        )
        corpus_store.write_corpus(path, arrays, meta, fault=fault)
        assert corpus_store.verify_store(path)
        assert_build_heals(tmp_path, calibration, fresh_digest)

    def test_quarantine_moves_the_store_aside(
        self, calibration, path, tmp_path, fresh_digest
    ):
        with open(path, "r+b") as handle:
            handle.truncate(path.stat().st_size // 2)
        truncated = path.read_bytes()
        target = corpus_store.quarantine_store(path)
        assert not path.exists()
        assert target.name == path.name + ".quarantined"
        # Just a miss: the build rebuilds and leaves the quarantined file.
        info = build_corpus(tmp_path, calibration=calibration)
        assert info["reused"] is False
        assert info["corpus_digest"] == fresh_digest
        assert target.read_bytes() == truncated

    @pytest.mark.parametrize(
        "key, value",
        [
            ("brand_layouts", [5]),
            ("brand_layouts", "abc"),
            ("brand_digests", ["x"]),
            ("leaf_count", "x"),
        ],
        ids=["layouts-int-row", "layouts-string", "digests-list", "leaf-count-string"],
    )
    def test_malformed_meta_value_is_a_miss_everywhere(
        self, calibration, path, tmp_path, fresh_digest, capsys, key, value
    ):
        """A meta value of the wrong type or shape is a finding, never an
        exception, and no path reuses the store."""
        set_meta(path, key, value)
        assert main(["corpus", "verify", str(path)]) == 1
        out = capsys.readouterr().out
        assert f"{path}: meta " in out and key in out
        study_dir = tmp_path / "study"
        study_dir.mkdir()
        shutil.copyfile(path, corpus_store.store_path(study_dir, calibration))
        assert_build_heals(tmp_path, calibration, fresh_digest)
        assert_study_heals(study_dir, calibration, fresh_digest)


class TestStudyPath:
    """A study's ``cache_dir`` runs the builder's reuse rule."""

    def test_damaged_store_heals_once_then_loads(
        self, calibration, store_path, fresh_digest, tmp_path, monkeypatch
    ):
        path = corpus_store.store_path(tmp_path, calibration)
        shutil.copyfile(store_path, path)
        flip_blob_byte(path)
        reads: list[Path] = []
        read_corpus = corpus_store.read_corpus

        def counting_read(store):
            reads.append(Path(store))
            return read_corpus(store)

        monkeypatch.setattr(corpus_store, "read_corpus", counting_read)

        damaged = path.read_bytes()
        healing = traced_study(calibration, tmp_path)
        healing.ecosystem
        assert source(healing) == "generated"
        assert path.with_name(path.name + ".quarantined").read_bytes() == damaged
        # The refused store's one read, then the written store's check.
        assert reads == [path, path]
        counters = healing.obs.metrics.counter_snapshot()
        assert counters["artifact_cache.misses"] == 1
        assert counters["artifact_cache.stores"] == 1
        assert "exec.store_rewrites" not in counters

        reads.clear()
        loading = traced_study(calibration, tmp_path)
        ecosystem = loading.ecosystem
        assert source(loading) == "store"
        assert reads == [path]  # one read of the file per load
        assert corpus.corpus_digest(corpus.encode_corpus(ecosystem)[0]) == fresh_digest
        assert loading.obs.metrics.counter_snapshot()["artifact_cache.hits"] == 1
        assert len(list(tmp_path.glob("*.quarantined"))) == 1


class TestApiSurface:
    def test_build_corpus_builds_then_reuses(self, tmp_path):
        first = api.corpus.build(tmp_path, scale=SCALE, shards=2)
        assert first["rebuilt"] is True
        second = api.corpus.build(tmp_path, scale=SCALE)
        assert second["rebuilt"] is False
        assert second["corpus_digest"] == first["corpus_digest"]
        assert api.corpus.info(first["path"])["leaf_count"] == first["leaf_count"]
        listed = api.corpus.list(tmp_path)
        assert [info["path"] for info in listed] == [first["path"]]

    def test_build_rebuilds_a_store_that_fails_verify(self, tmp_path):
        """The unsupervised build keeps the supervised path's reuse rule:
        a store ``corpus.verify`` rejects is quarantined and rebuilt,
        even when its meta table still reads."""
        first = api.corpus.build(tmp_path, scale=SCALE, seed=3)
        path = Path(first["path"])
        data = bytearray(path.read_bytes())
        middle = len(data) // 2
        for offset in range(middle, middle + 3):
            data[offset] ^= 0xFF
        path.write_bytes(bytes(data))
        assert api.corpus.verify(path)
        second = api.corpus.build(tmp_path, scale=SCALE, seed=3)
        assert second["rebuilt"] is True
        assert second["corpus_digest"] == first["corpus_digest"]
        assert api.corpus.verify(path) == []
        assert path.with_name(path.name + ".quarantined").exists()
