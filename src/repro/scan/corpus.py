"""Columnar corpus codec.

One schema serves two transports: worker processes ship generated brand
slices back to the parent as numpy arrays (pickling a scale-0.02 corpus
as record objects costs ~48 MB and ~20 s; the same corpus as columns is
a few MB and milliseconds), and :mod:`repro.scan.corpus_store` persists
the merged corpus into the on-disk SQLite artifact store.

Only *generated randomness* is encoded: leaf lifecycles, observed +
synthetic CRL entries, per-CRL assigned counts and hidden-population
targets, and Alexa ranks.  Everything else -- roots, intermediates, CRL
shards, URL tables -- is deterministic scaffold, rebuilt from the
calibration in milliseconds at decode time (see
:func:`repro.scan.shardgen.build_brand_scaffold`).

Leaf columns are aligned with cert_id order and sliced per brand via
:class:`~repro.scan.shardgen.BrandLayout`; entry columns are grouped by
CRL in global CRL order with per-CRL counts in ``crl_entry_count``.
Dates are stored as int32 proleptic ordinals (0 = None), serials as
21-byte big-endian blobs (fits 160-bit random serials), reason codes as
int8 (-1 = None).

The columns are also the one in-memory form of the corpus.  Generation
draws each brand's leaves into a :class:`LeafColumns` and its CRL
entries into :class:`EntryColumns` (the observed ones indexed out of the
leaf columns, the synthetic ones drawn straight in).  Every ecosystem
constructor attaches the concatenated columns the same way: the Leaf
Set is a :class:`LeafColumns` of views (:func:`decode_leaves`) and each
:class:`~repro.scan.crl_model.EcosystemCrl` gets its run of entry rows
(:func:`decode_crl_population`); both check the values and copy
nothing.  The scans, the timelines, the CRLSet sweep and the §3-§7
counts read the columns.  :class:`CrlEntryRecord` and
:class:`~repro.scan.records.LeafRecord` are the row types: records are
built (:meth:`EntryColumns.decode`,
:meth:`repro.scan.ecosystem.Ecosystem.leaf_records`) only as a copy, for
an API that takes one.
"""

from __future__ import annotations

import datetime
import hashlib
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.revocation.reason import ReasonCode
from repro.scan.bulk import DayInterner
from repro.scan.hidden import HiddenPopulation

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.scan.crl_model import EcosystemCrl

__all__ = [
    "CORPUS_FORMAT",
    "CrlEntryRecord",
    "EntryColumns",
    "LeafColumns",
    "brand_digests",
    "concat_parts",
    "corpus_digest",
    "decode_crl_population",
    "decode_leaves",
    "encode_brand_parts",
    "encode_corpus",
    "serial_blob",
    "slice_brand",
]

#: bump when the array schema changes; the store treats a mismatch as a miss.
CORPUS_FORMAT = 1

_SERIAL_BYTES = 21

_LEAF_COLUMNS = (
    "leaf_not_before",
    "leaf_not_after",
    "leaf_birth",
    "leaf_death",
    "leaf_revoked",
    "leaf_reason",
    "leaf_is_ev",
    "leaf_server_count",
    "leaf_stapling",
    "leaf_alexa",
    "leaf_serial",
    "leaf_intermediate",
    "leaf_crl",
    "leaf_has_ocsp",
)
_ENTRY_COLUMNS = (
    "entry_serial",
    "entry_revoked",
    "entry_reason",
    "entry_expiry",
    "entry_cert",
)
_CRL_COLUMNS = ("crl_entry_count", "crl_assigned", "crl_hidden")
ALL_COLUMNS = _LEAF_COLUMNS + _ENTRY_COLUMNS + _CRL_COLUMNS


def _ordinals(days) -> np.ndarray:
    """int32 proleptic ordinals, 0 for None."""
    return np.array(
        [0 if day is None else day.toordinal() for day in days], np.int32
    )


def serial_blob(serials) -> np.ndarray:
    """The ``(n, 21)`` big-endian blob column of ``serials`` (ints).  A
    serial outside 21 unsigned bytes raises ``OverflowError``."""
    width, order = itertools.repeat(_SERIAL_BYTES), itertools.repeat("big")
    buffer = b"".join(map(int.to_bytes, serials, width, order))
    return np.frombuffer(buffer, dtype=np.uint8).reshape(-1, _SERIAL_BYTES)


def _serials(blob: np.ndarray) -> list[int]:
    """The serial numbers in a ``(n, 21)`` blob column: one bytes slice
    per serial out of a single ``tobytes()`` copy."""
    data = blob.tobytes()
    return [
        int.from_bytes(data[i : i + _SERIAL_BYTES], "big")
        for i in range(0, len(data), _SERIAL_BYTES)
    ]


#: int8 reason column value -> reason (-1 = no reason extension).
_REASON_OF: dict[int, ReasonCode | None] = {
    -1: None,
    **{int(reason): reason for reason in ReasonCode},
}
#: the reason column values :data:`_REASON_OF` knows, and the largest
#: day ordinal a ``date`` holds: the decode checks the columns against
#: both, so it fails where building the records would.
_REASON_CODES = np.array(sorted(_REASON_OF), np.int8)
_MAX_ORDINAL = datetime.date.max.toordinal()


def _column(arrays: dict[str, np.ndarray], name: str, rows: slice) -> np.ndarray:
    """``arrays[name][rows]``; a column too short for ``rows`` raises."""
    column = arrays[name][rows]
    if len(column) != rows.stop - rows.start:
        raise ValueError(f"corpus column {name} is truncated")
    return column


@dataclass(slots=True)
class CrlEntryRecord:
    """One individually identified CRL entry: a decoded row of
    :class:`EntryColumns`."""

    serial_number: int
    revoked_at: datetime.date
    reason: ReasonCode | None
    cert_not_after: datetime.date
    #: cert_id of the Leaf Set certificate this entry revokes, if observed.
    cert_id: int | None = None


class _Columns:
    """Rows of one codec column group, held under attribute names.

    ``_FIELDS`` names the attributes in the order of the group's corpus
    column names ``_COLUMNS``; the constructor takes the columns in that
    order.  A run is never edited in place, so runs sliced out of one
    column set share its arrays.
    """

    __slots__ = ()
    _FIELDS: tuple[str, ...] = ()
    _COLUMNS: tuple[str, ...] = ()

    def __init__(self, *columns: np.ndarray) -> None:
        for name, column in zip(self._FIELDS, columns, strict=True):
            setattr(self, name, column)

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray], rows: slice):
        """Rows ``rows`` of a column set's columns of this group (views)."""
        return cls(*(_column(arrays, name, rows) for name in cls._COLUMNS))

    def __len__(self) -> int:
        return len(getattr(self, self._FIELDS[0]))

    def __getitem__(self, rows):
        """The rows selected by a slice, mask or index array."""
        return type(self)(*(getattr(self, name)[rows] for name in self._FIELDS))

    def arrays(self) -> dict[str, np.ndarray]:
        """The columns under their corpus names."""
        return {
            column: getattr(self, name)
            for column, name in zip(self._COLUMNS, self._FIELDS)
        }

    def serial_numbers(self, rows=None) -> list[int]:
        """The serials (of ``rows`` only, if given) as Python ints."""
        return _serials(self.serial if rows is None else self.serial[rows])


class EntryColumns(_Columns):
    """A run of CRL entries in the codec's entry columns.

    ``serial`` is the ``(n, 21)`` big-endian blob, ``revoked`` and
    ``expiry`` int32 day ordinals, ``reason`` int8 (-1 = no reason) and
    ``cert`` int32 (-1 = not a Leaf Set certificate): row ``i`` encodes
    the ``i``-th entry record.
    """

    __slots__ = _FIELDS = ("serial", "revoked", "reason", "expiry", "cert")
    _COLUMNS = _ENTRY_COLUMNS

    @classmethod
    def encode(cls, entries: list[CrlEntryRecord]) -> EntryColumns:
        """The codec's encoder.  A serial outside 21 unsigned bytes
        (negative, or 2**168 and up) raises ``OverflowError``."""
        return cls(
            serial_blob([entry.serial_number for entry in entries]),
            _ordinals([entry.revoked_at for entry in entries]),
            np.array(
                [-1 if entry.reason is None else int(entry.reason) for entry in entries],
                np.int8,
            ),
            _ordinals([entry.cert_not_after for entry in entries]),
            np.array(
                [-1 if entry.cert_id is None else entry.cert_id for entry in entries],
                np.int32,
            ),
        )

    def decode(self) -> list[CrlEntryRecord]:
        """The entry records the rows encode, in row order: the codec's
        decoder, and the one place entry records are built from columns."""
        days = DayInterner()
        # Keys in CrlEntryRecord field order: the records are built positionally.
        fields = {
            "serial_number": self.serial_numbers(),
            "revoked_at": [days[ordinal] for ordinal in self.revoked.tolist()],
            "reason": [_REASON_OF[code] for code in self.reason.tolist()],
            "cert_not_after": [days[ordinal] for ordinal in self.expiry.tolist()],
            "cert_id": [None if cert < 0 else cert for cert in self.cert.tolist()],
        }
        return list(map(CrlEntryRecord, *fields.values()))

    @classmethod
    def concat(cls, parts: list[EntryColumns]) -> EntryColumns:
        if not parts:
            return cls.encode([])
        return cls(
            *(
                np.concatenate([getattr(part, name) for part in parts])
                for name in cls._FIELDS
            )
        )

    def serial_significance(self, rows=None) -> tuple[np.ndarray, np.ndarray]:
        """``(significant bytes, leading significant byte)`` of each
        serial (of ``rows`` only, if given): the minimal unsigned
        big-endian length and its first byte, both 0 for a zero serial."""
        blob = self.serial if rows is None else self.serial[rows]
        first = (blob != 0).argmax(axis=1)
        lead = blob[np.arange(len(blob)), first]
        return np.where(lead == 0, 0, _SERIAL_BYTES - first), lead


class LeafColumns(_Columns):
    """The Leaf Set (or a run of it) in the codec's leaf columns, one
    row per leaf in cert_id order.

    ``not_before``, ``not_after``, ``birth`` and ``death`` are int32 day
    ordinals, and so is ``revoked``, with 0 for a leaf never revoked;
    ``reason`` is int8 (-1 = no reason), ``is_ev`` and ``has_ocsp``
    uint8 flags, and ``server_count``, ``stapling`` (the servers that
    staple) and ``alexa`` (0 = unranked) int32.  ``serial`` is the
    ``(n, 21)`` big-endian blob, ``intermediate`` the issuing
    intermediate's id and ``crl`` the global index of the CRL the leaf
    points at (-1 = no CRL pointer), both int32.  The scaffold turns ids
    into brands and URLs: :meth:`repro.scan.ecosystem.Ecosystem.leaf_records`
    decodes rows into :class:`~repro.scan.records.LeafRecord` copies.
    """

    __slots__ = _FIELDS = tuple(name.removeprefix("leaf_") for name in _LEAF_COLUMNS)
    _COLUMNS = _LEAF_COLUMNS

    def fresh_mask(self, day: datetime.date) -> np.ndarray:
        """Rows within [notBefore, notAfter] on ``day``."""
        ordinal = day.toordinal()
        return (self.not_before <= ordinal) & (ordinal <= self.not_after)

    def alive_mask(self, day: datetime.date) -> np.ndarray:
        """Rows advertised by at least one host on ``day``."""
        ordinal = day.toordinal()
        return (self.birth <= ordinal) & (ordinal <= self.death)

    def revoked_mask(self, day: datetime.date | None = None) -> np.ndarray:
        """Rows revoked by ``day``, or revoked at all without one."""
        if day is None:
            return self.revoked != 0
        return (self.revoked != 0) & (self.revoked <= day.toordinal())


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------


def _encode_crls(crls: list[EcosystemCrl]) -> dict[str, np.ndarray]:
    arrays = EntryColumns.concat([crl.entries for crl in crls]).arrays()
    arrays.update(
        {
            "crl_entry_count": np.array([len(crl.entries) for crl in crls], np.int32),
            "crl_assigned": np.array(
                [crl.assigned_cert_count for crl in crls], np.int32
            ),
            "crl_hidden": np.array(
                [-1 if crl.hidden is None else crl.hidden.target_end for crl in crls],
                np.int64,
            ),
        }
    )
    return arrays


def encode_brand_parts(state, leaves: LeafColumns) -> dict[str, np.ndarray]:
    """One brand's generated randomness as columns (worker -> parent).

    ``leaf_crl`` holds *global* CRL indexes (``layout.crl_base`` +
    local), so brand parts concatenate directly into the full corpus.
    """
    arrays = leaves.arrays()
    arrays.update(_encode_crls(state.crls))
    return arrays


def concat_parts(parts: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Concatenate per-brand parts (already in profile order) into the
    full corpus column set."""
    return {
        name: np.concatenate([part[name] for part in parts])
        for name in ALL_COLUMNS
    }


def encode_corpus(ecosystem) -> tuple[dict[str, np.ndarray], dict]:
    """The full corpus as (columns, meta) for the artifact store.

    ``meta`` carries the whole-corpus content digest *and* the per-brand
    layout + digests, so :func:`repro.scan.corpus_store.verify_store`
    can localise corruption to a brand slice without the calibration.
    """
    arrays = ecosystem.leaves.arrays()
    arrays.update(_encode_crls(ecosystem.crls))
    calibration = ecosystem.calibration
    layouts = [
        [
            profile.name,
            layout.cert_base,
            layout.cert_count,
            layout.crl_base,
            layout.crl_count,
        ]
        for profile, layout in zip(ecosystem.profiles, ecosystem._layouts)
    ]
    meta = {
        "format": CORPUS_FORMAT,
        "seed": calibration.seed,
        "scale": repr(calibration.scale),
        "leaf_count": len(ecosystem.leaves),
        "crl_count": len(ecosystem.crls),
        "entry_count": int(arrays["crl_entry_count"].sum()),
        "corpus_digest": corpus_digest(arrays),
        "brand_layouts": layouts,
        "brand_digests": brand_digests(arrays, layouts),
    }
    return arrays, meta


def corpus_digest(
    arrays: dict[str, np.ndarray], columns: tuple[str, ...] = ALL_COLUMNS
) -> str:
    """Content digest over ``columns``; byte-identity across shard
    counts and transports is asserted against this."""
    hasher = hashlib.sha256()
    for name in columns:
        array = np.ascontiguousarray(arrays[name])
        hasher.update(name.encode())
        hasher.update(str(array.dtype).encode())
        hasher.update(str(array.shape).encode())
        hasher.update(array.tobytes())
    return hasher.hexdigest()[:20]


#: columns a brand's generation substream fully determines.  leaf_alexa
#: is excluded: Alexa ranks are a merge-time global stage
#: (:func:`repro.scan.shardgen.alexa_ranks`), so worker-built
#: parts carry zeros there; the whole-corpus digest still covers it.
_BRAND_COLUMNS = tuple(c for c in ALL_COLUMNS if c != "leaf_alexa")


def slice_brand(
    arrays: dict[str, np.ndarray], layout_row: list | tuple
) -> dict[str, np.ndarray]:
    """One brand's substream columns out of the full corpus.

    ``layout_row`` is a ``brand_layouts`` meta row
    (``[name, cert_base, cert_count, crl_base, crl_count]``).  Because
    ``leaf_crl`` stores *global* CRL indexes even inside per-brand parts,
    a brand's slice of the merged corpus is byte-identical to the parts
    its generation worker produced (:data:`_BRAND_COLUMNS` only) -- so
    one digest covers both the shard checkpoint and the store slice.
    """
    _, cert_base, cert_count, crl_base, crl_count = layout_row
    counts = arrays["crl_entry_count"]
    entry_base = int(counts[:crl_base].sum())
    entry_count = int(counts[crl_base : crl_base + crl_count].sum())
    sliced = {}
    for name in _BRAND_COLUMNS:
        if name in _LEAF_COLUMNS:
            base, count = cert_base, cert_count
        elif name in _ENTRY_COLUMNS:
            base, count = entry_base, entry_count
        else:
            base, count = crl_base, crl_count
        sliced[name] = arrays[name][base : base + count]
    return sliced


def brand_digests(
    arrays: dict[str, np.ndarray], layouts: list
) -> dict[str, str]:
    """Per-brand content digests over the corpus columns (see
    :func:`slice_brand` for why these match shard-checkpoint digests)."""
    return {
        row[0]: corpus_digest(slice_brand(arrays, row), _BRAND_COLUMNS)
        for row in layouts
    }


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------


def _check_range(column: np.ndarray, name: str, low: int, high: int) -> None:
    """Raise ``ValueError`` naming column ``name`` unless every value of
    ``column`` is in [low, high]."""
    if len(column) and not low <= column.min() <= column.max() <= high:
        raise ValueError(f"corpus column {name} holds a value out of range")


def decode_leaves(arrays: dict[str, np.ndarray], states) -> LeafColumns:
    """The Leaf Set: views of the leaf columns of ``arrays``, no copy.

    ``states`` are the scaffolded brands in profile order.  Every value
    a decoded :class:`~repro.scan.records.LeafRecord` would rest on is
    checked, brand slice by brand slice, so a damaged column raises
    ``ValueError`` naming it: a known reason code, days a ``date``
    holds (``revoked`` may also be 0), an intermediate of the leaf's
    own brand, and a CRL pointer that is -1 or one of its brand's CRLs.
    """
    count = sum(state.layout.cert_count for state in states)
    leaves = LeafColumns.from_arrays(arrays, slice(0, count))
    if not np.isin(leaves.reason, _REASON_CODES).all():
        raise ValueError("corpus column leaf_reason holds an unknown reason code")
    for name in ("not_before", "not_after", "birth", "death"):
        _check_range(getattr(leaves, name), f"leaf_{name}", 1, _MAX_ORDINAL)
    _check_range(leaves.revoked, "leaf_revoked", 0, _MAX_ORDINAL)
    for state in states:
        layout = state.layout
        brand = leaves[layout.cert_rows]
        first = layout.intermediate_base
        last = first + len(state.intermediate_records) - 1
        _check_range(brand.intermediate, "leaf_intermediate", first, last)
        crls = brand.crl[brand.crl != -1]
        last = layout.crl_base + layout.crl_count - 1
        _check_range(crls, "leaf_crl", layout.crl_base, last)
    return leaves


def decode_crl_population(
    arrays: dict[str, np.ndarray], crls: list[EcosystemCrl], calibration
) -> None:
    """Attach entries, assigned counts, and hidden populations to the
    scaffolded global CRL list (in place).  Each CRL's ``entries`` is
    assigned its run of the entry columns; no record is built.

    A reason code or day ordinal that no entry record could hold raises
    ``ValueError``, so a damaged column fails the decode.
    """
    from repro.scan.shardgen import _SYNTH_WINDOW_START

    crl_rows = slice(0, len(crls))
    counts = _column(arrays, "crl_entry_count", crl_rows).tolist()
    columns = EntryColumns.from_arrays(arrays, slice(0, sum(counts)))
    if not np.isin(columns.reason, _REASON_CODES).all():
        raise ValueError("corpus column entry_reason holds an unknown reason code")
    for name in ("revoked", "expiry"):
        _check_range(getattr(columns, name), f"entry_{name}", 1, _MAX_ORDINAL)
    cursor = 0
    for crl, count, assigned, target in zip(
        crls,
        counts,
        _column(arrays, "crl_assigned", crl_rows).tolist(),
        _column(arrays, "crl_hidden", crl_rows).tolist(),
    ):
        crl.entries = columns[cursor : cursor + count]
        cursor += count
        crl.assigned_cert_count = assigned
        if target >= 0:
            crl.hidden = HiddenPopulation(
                target_end=target,
                window_start=_SYNTH_WINDOW_START,
                window_end=calibration.measurement_end,
                heartbleed_date=calibration.heartbleed_date,
            )
