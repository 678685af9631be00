"""The corpus stays in its codec columns from generation to the figures.

- Leaves are drawn straight into leaf columns and synthetic CRL entries
  into entry columns; the columns equal the encoding of the
  record-building references (``reference_leaves.py``,
  ``reference_synthetic.py``), with the same draws in the same order.
- A CRL's ``entries`` is one run of entry columns; records are only a
  decoded copy.  The codec refuses a serial outside 21 unsigned bytes.
- A scan snapshot is a sorted id array that answers ``len``, ``in``,
  ``cert_ids`` and equality as the frozenset it replaced did.
- The store decode builds no record but rejects damaged leaf and entry
  columns.
- After a store load, the 12 corpus figures build no entry record and
  no snapshot frozenset, and a leaf record only for each leaf revoked by
  the measurement end (Figure 10's per-mechanism windows).
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
from repro.scan import streams
from repro.scan.corpus import (
    CrlEntryRecord,
    EntryColumns,
    LeafColumns,
    encode_corpus,
)
from repro.scan.crl_model import EcosystemCrl
from repro.scan.ecosystem import Ecosystem
from repro.scan.hidden import HiddenPopulation
from repro.scan.records import LeafRecord
from repro.scan.scanner import Rapid7Scanner, ScanSnapshot
from repro.scan.streams import substream
from tests.scan import reference_leaves
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


def _assert_columns_equal(a, b) -> None:
    """Two entry or leaf column runs hold equal columns: dtype, shape
    and values."""
    expected = b.arrays()
    for name, left in a.arrays().items():
        right = expected[name]
        assert left.dtype == right.dtype, name
        assert left.shape == right.shape, name
        assert np.array_equal(left, right), name


def _merged(runs: list[LeafColumns]) -> LeafColumns:
    arrays = {
        name: np.concatenate([run.arrays()[name] for run in runs])
        for name in runs[0].arrays()
    }
    return LeafColumns.from_arrays(arrays, slice(0, sum(map(len, runs))))


#: issuance ends decades before the scans, so every leaf takes the 40-try
#: fallback, and Heartbleed precedes every leaf, so each brand's
#: revocations past steady churn are shortfall leftovers.
_FALLBACKS = dataclasses.replace(
    Calibration(scale=0.0005, seed=5),
    issuance_start=datetime.date(1990, 1, 1),
    monthly_growth=0.5,
    heartbleed_date=datetime.date(2012, 1, 1),
)


class TestLeafColumns:
    """Leaf generation against the record-building reference, brand by
    brand: more seeds than the corpus golden pins, so the rarer branches
    (the 40-try issue-date fallback, a tiny brand's shortfall leftovers)
    are compared too."""

    @pytest.mark.parametrize(
        "cal",
        [
            *(Calibration(scale=0.0005, seed=seed) for seed in (1, 7, 99)),
            _FALLBACKS,
        ],
        ids=["seed1", "seed7", "seed99", "fallbacks"],
    )
    def test_columns_equal_the_reference_records(self, cal, monkeypatch):
        root_cas, _ = shardgen.build_roots(cal, PAPER_CA_PROFILES)
        made: dict[str, dict] = {"columns": {}, "reference": {}}

        def recording(side: str):
            def record(*key):
                rng = made[side][key] = streams.substream(*key)
                return rng

            return record

        columns_runs, reference = [], []
        for profile, layout in zip(
            PAPER_CA_PROFILES, shardgen.layout_brands(cal, PAPER_CA_PROFILES)
        ):
            state = shardgen.build_brand_scaffold(
                cal, profile, layout, root_cas[profile.name]
            )
            monkeypatch.setattr(shardgen, "substream", recording("columns"))
            monkeypatch.setattr(reference_leaves, "substream", recording("reference"))
            columns = shardgen.build_brand_leaves(cal, state)
            shardgen.assign_brand_revocations(cal, state, columns)
            records = reference_leaves.leaf_records(cal, state)
            observed = reference_leaves.revoke_records(cal, state, records)
            monkeypatch.undo()
            crl_index = {
                crl.url: layout.crl_base + i for i, crl in enumerate(state.crls)
            }
            _assert_columns_equal(
                columns, reference_leaves.encode_leaves(records, crl_index)
            )
            # Each CRL lists its revoked leaves first, in revocation order,
            # then only synthetic entries.
            shardgen.populate_brand_synthetic(cal, state, columns)
            for crl in state.crls:
                expected = EntryColumns.encode(observed.get(crl.url, []))
                _assert_columns_equal(crl.entries[: len(expected)], expected)
                assert (crl.entries.cert[len(expected) :] < 0).all(), crl.url
            columns_runs.append(columns)
            reference.extend(records)

        monkeypatch.setattr(shardgen, "substream", recording("columns"))
        monkeypatch.setattr(reference_leaves, "substream", recording("reference"))
        alexa = shardgen.alexa_ranks(cal, _merged(columns_runs))
        reference_leaves.alexa_records(cal, reference)
        ranks = [leaf.alexa_rank or 0 for leaf in reference]
        assert alexa.dtype == np.int32 and alexa.tolist() == ranks
        states = {
            side: {key: rng.getstate() for key, rng in rngs.items()}
            for side, rngs in made.items()
        }
        assert states["columns"] == states["reference"]
        assert {key[1] for key in states["columns"]} == {"leaves", "revoke", "alexa"}
        fallback = _merged(columns_runs).not_before == cal.scan_start.toordinal()
        assert fallback.all() == (cal is _FALLBACKS)


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
                columns = crl.entries
                synthetic = columns[columns.cert < 0]
                if crl.hidden is not None or not len(synthetic):
                    continue
                end = cal.measurement_end
                observed_end = sum(
                    1
                    for entry in columns.decode()
                    if entry.cert_id is not None
                    and entry.revoked_at <= end <= entry.cert_not_after
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
    """A CRL whose entries were assigned as columns, as the store decode
    and generation assign them."""
    crl = _crl()
    crl.entries = EntryColumns.encode(_records())
    return crl


class TestCrlEntries:
    """A CRL's entries are one run of entry columns, replaced by
    assignment and never edited in place."""

    def test_len_reads_the_row_count(self, loaded_crl, monkeypatch):
        decoded = []
        monkeypatch.setattr(
            EntryColumns, "decode", lambda self: decoded.append(self) or []
        )
        assert len(loaded_crl.entries) == 4
        assert loaded_crl.entry_count(datetime.date(2014, 4, 15)) == 4
        assert decoded == []

    def test_decode_gives_the_records(self, loaded_crl):
        assert loaded_crl.entries.decode() == _records()

    def test_a_new_crl_lists_nothing(self):
        crl = _crl()
        _assert_columns_equal(crl.entries, EntryColumns.encode([]))
        assert crl.entry_count(datetime.date(2014, 4, 15)) == 0
        assert crl.visible_entries(datetime.date(2014, 4, 15)) == []

    def test_assigning_entries_replaces_them(self):
        day = datetime.date(2014, 4, 20)
        crl = _crl()
        crl.entries = EntryColumns.encode(
            [CrlEntryRecord(9, day, None, day + datetime.timedelta(days=3))]
        )
        assert crl.entry_count(day) == 1
        crl.entries = EntryColumns.encode(_records())
        assert crl.entries.decode() == _records()
        assert crl.entry_count(day) == 4

    def test_columns_survive_invalidation(self, loaded_crl):
        day = datetime.date(2014, 4, 15)
        columns = loaded_crl.entries
        loaded_crl.invalidate_series()
        loaded_crl.hidden = None
        assert loaded_crl.entries is columns
        assert loaded_crl.entry_count(day) == 4

    def test_visible_entries_decode_the_listed_rows_only(
        self, loaded_crl, monkeypatch
    ):
        decode, rows = EntryColumns.decode, []
        monkeypatch.setattr(
            EntryColumns, "decode", lambda self: rows.append(len(self)) or decode(self)
        )
        start = datetime.date(2014, 4, 8)
        for offset in range(60):
            day = start + datetime.timedelta(days=offset)
            expected = [
                record
                for record in _records()
                if record.revoked_at <= day <= record.cert_not_after
            ]
            assert loaded_crl.visible_entries(day) == expected, day
            assert rows[-1] == len(expected) == loaded_crl.entry_count(day), day
        assert 0 in rows and 4 in rows and set(rows) - {0, 4}

    def test_copies_share_the_columns(self, loaded_crl):
        copy = dataclasses.replace(loaded_crl, url="http://crl.example/copy.crl")
        assert copy.entries is loaded_crl.entries


class TestSerialRange:
    """The codec holds a serial in 21 unsigned bytes and raises
    ``OverflowError`` on any other.  No corpus carries one: generation
    draws 160-bit or counter serials, and RFC 5280 serials are positive
    and at most 20 octets."""

    @pytest.mark.parametrize("serial", [-1, -129, 2**168])
    def test_encode_raises_on_a_serial_it_cannot_hold(self, serial):
        day = datetime.date(2014, 4, 10)
        with pytest.raises(OverflowError):
            EntryColumns.encode([CrlEntryRecord(serial, day, None, day)])

    def test_largest_serial_round_trips(self):
        day = datetime.date(2014, 4, 10)
        records = [CrlEntryRecord(2**168 - 1, day, None, day), *_records()]
        assert EntryColumns.encode(records).decode() == records


class TestDecodeFailsClosed:
    """The decode builds no records, and still rejects what no record
    could hold."""

    @pytest.mark.parametrize(
        "column, value",
        [("entry_reason", 99), ("entry_reason", -2), ("entry_revoked", 0),
         ("entry_expiry", -5), ("leaf_reason", 99), ("leaf_not_before", 0),
         ("leaf_revoked", -1), ("leaf_crl", -2), ("leaf_crl", "crls"),
         ("leaf_intermediate", -1), ("leaf_intermediate", "intermediates")],
    )
    def test_damaged_column_raises(self, ecosystem, column, value):
        """Row 7 damaged; ``"crls"`` and ``"intermediates"`` stand for
        the CRL and intermediate counts, one past the last index."""
        value = {
            "crls": len(ecosystem.crls),
            "intermediates": len(ecosystem.intermediates),
        }.get(value, value)
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
        expected = {
            leaf.cert_id for leaf in ecosystem.leaf_records() if leaf.is_alive(date)
        }
        assert snapshot.cert_ids == expected


class TestNoRecordsAfterLoad:
    """The counting probe: a study loaded from the corpus store runs the
    12 corpus figures on columns alone, decoding leaf records only for
    the per-leaf mechanism API."""

    def test_figures_build_no_entry_record_or_snapshot_set(
        self, tmp_path, monkeypatch
    ):
        calibration = Calibration(scale=0.002)
        MeasurementStudy(calibration=calibration, cache_dir=tmp_path).ecosystem
        built = {CrlEntryRecord: [], LeafRecord: []}
        for record_type, counts in built.items():

            def counting_init(self, *args, _init=record_type.__init__, _n=counts):
                _n.append(1)
                _init(self, *args)

            monkeypatch.setattr(record_type, "__init__", counting_init)
        entries, leaves = built[CrlEntryRecord], built[LeafRecord]
        study = MeasurementStudy(
            calibration=calibration, cache_dir=tmp_path, fault_profile="none"
        )
        assert len(study.ecosystem.crls) and len(study.ecosystem.leaves)
        assert not entries and not leaves
        for experiment_id in CORPUS_EXPERIMENTS:
            result = api.study.run_one(experiment_id, study)
            assert result.ok, experiment_id
            assert not entries, experiment_id
        # Figure 10 hands each leaf revoked by the measurement end to the
        # mechanisms' window API, once.
        end = calibration.measurement_end
        revoked = int(np.count_nonzero(study.ecosystem.leaves.revoked_mask(end)))
        assert 0 < len(leaves) == revoked < len(study.ecosystem.leaves)
        assert study.scans
        assert not [s for s in study.scans if "cert_ids" in vars(s)]
        # The probe counts: decoding rows builds their records.
        crl = next(crl for crl in study.ecosystem.crls if len(crl.entries))
        crl.entries.decode()
        assert len(entries) == len(crl.entries)
        study.ecosystem.leaf(0)
        assert len(leaves) == revoked + 1
