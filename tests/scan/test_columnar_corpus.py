"""The corpus stays in entry columns from generation to the figures.

- Synthetic CRL entries are drawn straight into columns; the columns
  equal the encoding of the record-building reference
  (``reference_synthetic.py``), with the same draws in the same order.
- A column-backed CRL's ``entries`` is a read-only sequence whose
  records are decoded on first read.
- A scan snapshot is a sorted id array that answers ``len``, ``in``,
  ``cert_ids`` and equality as the frozenset it replaced did.
- The store decode builds no record but rejects damaged entry columns.
- After a store load, the 12 corpus figures build no entry record and
  no snapshot frozenset.
"""

from __future__ import annotations

import dataclasses
import datetime

import numpy as np
import pytest

from repro import api
from repro.ca.profiles import PAPER_CA_PROFILES
from repro.core.pipeline import MeasurementStudy
from repro.pki.keys import KeyPair
from repro.pki.name import Name
from repro.revocation.reason import ReasonCode
from repro.scan import shardgen
from repro.scan.calibration import Calibration
from repro.scan.corpus import EntryColumns, encode_corpus
from repro.scan.crl_model import ColumnEntries, CrlEntryRecord, EcosystemCrl
from repro.scan.ecosystem import Ecosystem
from repro.scan.hidden import HiddenPopulation
from repro.scan.scanner import Rapid7Scanner, ScanSnapshot
from repro.scan.streams import substream
from tests.scan.reference_synthetic import synthetic_records

#: the experiments that read only the corpus.
CORPUS_EXPERIMENTS = (
    "section3",
    "section42",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "table1",
)

_FIELDS = ("serial", "revoked", "reason", "expiry", "cert")


def _assert_columns_equal(a: EntryColumns, b: EntryColumns) -> None:
    for name in _FIELDS:
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype, name
        assert left.shape == right.shape, name
        assert np.array_equal(left, right), name


def _schedule(cal: Calibration, target: int, **kwargs) -> HiddenPopulation:
    return HiddenPopulation(
        target_end=target,
        window_start=shardgen._SYNTH_WINDOW_START,
        window_end=cal.measurement_end,
        heartbleed_date=cal.heartbleed_date,
        **kwargs,
    )


class TestSyntheticColumns:
    """``_synthetic_entries`` against the record-building reference."""

    @pytest.mark.parametrize("seed", [20151028, 7, 3])
    @pytest.mark.parametrize("target", [0, 1, 2, 9, 140, 2_500, 14_000])
    @pytest.mark.parametrize("band", [None, shardgen.SYNTH_SERIAL_BASE + 42])
    def test_columns_equal_the_reference_records(self, seed, target, band):
        cal = Calibration(scale=0.002, seed=seed)
        schedule = _schedule(cal, target)
        self._check(cal, schedule, band, ("Unit", target))

    @pytest.mark.parametrize("target", [1, 3, 25, 60])
    def test_clamped_removals_equal_the_reference(self, target):
        """A schedule whose removals outrun the listed entries: the FIFO
        cursor stops at the listed count and the excess is dropped."""
        cal = Calibration(scale=0.002)
        schedule = _schedule(cal, target, churn=3.0, growth=0.0)
        window = (cal.measurement_end - shardgen._SYNTH_WINDOW_START).days
        assert min(
            schedule.count_at(shardgen._SYNTH_WINDOW_START + datetime.timedelta(d))
            for d in range(window + 1)
        ) < 0
        self._check(cal, schedule, None, ("Clamp", target))

    def test_every_generated_crl_equals_the_reference(self):
        """Every materialised CRL of a small corpus, through
        ``populate_brand_synthetic``'s own substreams and bands."""
        cal = Calibration(scale=0.0005, seed=11)
        checked = 0
        for layout, profile in zip(
            shardgen.layout_brands(cal, PAPER_CA_PROFILES), PAPER_CA_PROFILES
        ):
            state, _ = shardgen.build_brand(cal, profile, layout)
            for local_index, crl in enumerate(state.crls):
                columns = crl.entry_columns
                synthetic = columns[columns.cert < 0]
                if crl.hidden is not None or not len(synthetic):
                    continue
                observed_end = sum(
                    1
                    for entry in crl.entries
                    if entry.cert_id is not None
                    and entry.visible_on(cal.measurement_end)
                )
                schedule = _schedule(cal, crl._target_entries - observed_end)
                band = shardgen.SYNTH_SERIAL_BASE + shardgen.SYNTH_SERIAL_STRIDE * (
                    layout.crl_base + local_index
                )
                rng = substream(cal.seed, "synth", profile.name, local_index)
                expected = synthetic_records(
                    rng,
                    cal,
                    schedule,
                    None if profile.serial_style == "random_long" else band,
                )
                _assert_columns_equal(synthetic, EntryColumns.encode(expected))
                checked += 1
        assert checked > 10

    @staticmethod
    def _check(cal, schedule, band, stream) -> None:
        rng = substream(cal.seed, "synth", *stream)
        reference_rng = substream(cal.seed, "synth", *stream)
        columns = shardgen._synthetic_entries(
            rng, cal, schedule, shardgen._reason_mix(cal), band
        )
        records = synthetic_records(reference_rng, cal, schedule, band)
        _assert_columns_equal(columns, EntryColumns.encode(records))
        assert rng.getstate() == reference_rng.getstate()


def _records() -> list[CrlEntryRecord]:
    day = datetime.date(2014, 4, 10)
    return [
        CrlEntryRecord(
            serial_number=serial,
            revoked_at=day + datetime.timedelta(days=serial % 5),
            reason=reason,
            cert_not_after=day + datetime.timedelta(days=30 + serial % 50),
            cert_id=cert_id,
        )
        for serial, reason, cert_id in [
            (5, None, None),
            (2**159 + 17, ReasonCode.KEY_COMPROMISE, 12),
            (1000, ReasonCode.CESSATION_OF_OPERATION, None),
            (0, None, 3),
        ]
    ]


def _crl() -> EcosystemCrl:
    return EcosystemCrl(
        url="http://crl.example/columns.crl",
        brand="Unit",
        intermediate_id=0,
        issuer_name=Name.make("Unit CA", organization="Unit CA"),
        issuer_key_hash=KeyPair.generate("columns-ca").key_id,
        signature_size=256,
        signature_algorithm_oid="1.2.840.113549.1.1.11",
        serial_bytes=21,
    )


@pytest.fixture()
def loaded_crl() -> EcosystemCrl:
    """A CRL whose entries were written as columns, as the store decode
    and generation write them."""
    crl = _crl()
    crl.entry_columns = EntryColumns.encode(_records())
    return crl


class TestColumnEntries:
    def test_len_reads_the_row_count(self, loaded_crl, monkeypatch):
        decoded = []
        monkeypatch.setattr(
            EntryColumns, "decode", lambda self: decoded.append(self) or []
        )
        assert isinstance(loaded_crl.entries, ColumnEntries)
        assert len(loaded_crl.entries) == 4
        assert loaded_crl.entry_count(datetime.date(2014, 4, 15)) == 4
        assert decoded == []

    def test_indexing_and_iteration(self, loaded_crl):
        records = _records()
        entries = loaded_crl.entries
        assert [entries[i] for i in range(4)] == records
        assert entries[-1] == records[-1]
        assert entries[1:3] == records[1:3]
        assert list(entries) == records
        assert list(reversed(entries)) == records[::-1]
        assert records[2] in entries
        with pytest.raises(IndexError):
            entries[4]

    def test_records_are_decoded_once(self, loaded_crl):
        assert loaded_crl.entries[0] is loaded_crl.entries[0]
        assert next(iter(loaded_crl.entries)) is loaded_crl.entries[0]

    def test_equals_the_list_of_decoded_records(self, loaded_crl):
        records = _records()
        assert loaded_crl.entries == records
        assert records == loaded_crl.entries
        assert loaded_crl.entries == loaded_crl.entry_columns.decode()
        assert loaded_crl.entries != records[:-1]
        assert loaded_crl.entries != records[::-1]
        other = _crl()
        other.entry_columns = EntryColumns.encode(_records())
        assert loaded_crl.entries == other.entries
        assert loaded_crl == other

    def test_no_mutation_through_the_view(self, loaded_crl):
        entries = loaded_crl.entries
        with pytest.raises(AttributeError):
            entries.append(_records()[0])
        with pytest.raises(AttributeError):
            entries.extend(_records())
        with pytest.raises(TypeError):
            entries[0] = _records()[1]
        with pytest.raises(TypeError):
            del entries[0]
        assert len(loaded_crl.entries) == 4
        assert loaded_crl.entries == _records()

    def test_add_entry_after_a_load(self, loaded_crl):
        day = datetime.date(2014, 4, 20)
        assert loaded_crl.entry_count(day) == 4
        extra = CrlEntryRecord(77, day, None, day + datetime.timedelta(days=9))
        loaded_crl.add_entry(extra)
        assert loaded_crl.entries == [*_records(), extra]
        assert loaded_crl.entry_count(day) == 5
        assert loaded_crl.additions_on(day) == 1
        _assert_columns_equal(
            loaded_crl.entry_columns, EntryColumns.encode([*_records(), extra])
        )

    def test_assigning_columns_replaces_records(self):
        day = datetime.date(2014, 4, 20)
        crl = _crl()
        crl.add_entry(CrlEntryRecord(9, day, None, day + datetime.timedelta(days=3)))
        assert crl.entry_count(day) == 1
        crl.entry_columns = EntryColumns.encode(_records())
        assert crl.entries == _records()
        assert crl.entry_count(day) == 4

    def test_columns_survive_invalidation(self, loaded_crl):
        day = datetime.date(2014, 4, 15)
        columns = loaded_crl.entry_columns
        loaded_crl.invalidate_series()
        loaded_crl.hidden = None
        assert loaded_crl.entry_columns is columns
        assert loaded_crl.entry_count(day) == 4

    def test_record_edit_takes_effect_on_invalidation(self, loaded_crl):
        day = datetime.date(2014, 4, 15)
        size = loaded_crl.size_bytes(day)
        loaded_crl.entries[0].cert_not_after = datetime.date(2014, 4, 12)
        loaded_crl.invalidate_series()
        edited = _records()
        edited[0].cert_not_after = datetime.date(2014, 4, 12)
        assert loaded_crl.entries == edited
        assert loaded_crl.entry_count(day) == 3
        _assert_columns_equal(loaded_crl.entry_columns, EntryColumns.encode(edited))
        reference = _crl()
        reference.entries = edited
        assert loaded_crl.size_bytes(day) == reference.size_bytes(day) < size
        assert [e.serial_number for e in loaded_crl.visible_entries(day)] == [
            e.serial_number for e in edited[1:]
        ]

    def test_copies_share_the_columns(self, loaded_crl):
        copy = dataclasses.replace(loaded_crl, url="http://crl.example/copy.crl")
        assert copy.entry_columns is loaded_crl.entry_columns
        assert copy.entries == _records()


class TestDecodeFailsClosed:
    """The decode builds no records, and still rejects what no record
    could hold."""

    @pytest.mark.parametrize(
        "column, value",
        [("entry_reason", 99), ("entry_reason", -2), ("entry_revoked", 0),
         ("entry_expiry", -5)],
    )
    def test_damaged_entry_column_raises(self, ecosystem, column, value):
        arrays, meta = encode_corpus(ecosystem)
        arrays[column] = arrays[column].copy()
        arrays[column][7] = value
        with pytest.raises(ValueError, match=column):
            Ecosystem.from_corpus(ecosystem.calibration, arrays, meta)


def _snapshot(ids, day=datetime.date(2014, 4, 7)) -> ScanSnapshot:
    return ScanSnapshot(date=day, ids=np.array(sorted(ids), np.int64))


class TestScanSnapshot:
    @pytest.mark.parametrize(
        "ids", [set(), {0}, {5}, {0, 1, 2, 3}, {2, 7, 11, 40, 41, 1000}]
    )
    def test_answers_as_the_frozenset(self, ids):
        snapshot, expected = _snapshot(ids), frozenset(ids)
        assert len(snapshot) == len(expected)
        for cert_id in range(-3, 1005):
            assert (cert_id in snapshot) == (cert_id in expected), cert_id
        assert (np.int64(7) in snapshot) == (7 in expected)
        assert snapshot.cert_ids == expected
        assert isinstance(snapshot.cert_ids, frozenset)
        assert snapshot.cert_ids is snapshot.cert_ids

    def test_equality_compares_date_and_ids(self):
        a = _snapshot({1, 4, 9})
        assert a == _snapshot({1, 4, 9})
        assert hash(a) == hash(_snapshot({1, 4, 9}))
        assert a != _snapshot({1, 4})
        assert a != _snapshot({1, 4, 10})
        assert a != _snapshot({1, 4, 9}, datetime.date(2014, 4, 14))
        assert a != frozenset({1, 4, 9})

    def test_scan_ids_are_the_sorted_alive_ids(self, ecosystem):
        date = ecosystem.calibration.scan_dates[40]
        snapshot = Rapid7Scanner(ecosystem).scan(date)
        assert snapshot.ids.dtype == np.int64
        assert np.all(np.diff(snapshot.ids) > 0)
        expected = {leaf.cert_id for leaf in ecosystem.leaves if leaf.is_alive(date)}
        assert snapshot.cert_ids == expected


class TestNoRecordsAfterLoad:
    """The counting probe: a study loaded from the corpus store runs the
    12 corpus figures on columns alone."""

    def test_figures_build_no_entry_record_or_snapshot_set(
        self, tmp_path, monkeypatch
    ):
        calibration = Calibration(scale=0.002)
        MeasurementStudy(calibration=calibration, cache_dir=tmp_path).ecosystem
        built = []
        init = CrlEntryRecord.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(CrlEntryRecord, "__init__", counting_init)
        study = MeasurementStudy(
            calibration=calibration, cache_dir=tmp_path, fault_profile="none"
        )
        assert len(study.ecosystem.crls) and not built
        for experiment_id in CORPUS_EXPERIMENTS:
            result = api.study.run_one(experiment_id, study)
            assert result.ok, experiment_id
            assert not built, experiment_id
        assert study.scans
        assert not [s for s in study.scans if "cert_ids" in vars(s)]
        # The probe counts: reading one entry builds the CRL's records.
        crl = next(crl for crl in study.ecosystem.crls if len(crl.entries))
        crl.entries[0]
        assert len(built) == len(crl.entries)
