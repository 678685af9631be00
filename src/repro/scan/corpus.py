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

The entry columns are also the one in-memory form of the CRL entries:
generation encodes each brand's observed entries and draws the synthetic
ones straight into an :class:`EntryColumns`, the decoder hands each
:class:`~repro.scan.crl_model.EcosystemCrl` its run of rows, and the CRL
timelines, the CRLSet sweep and the §7 analyses read those columns.
:class:`CrlEntryRecord` is the codec's row type: records are built
(:meth:`EntryColumns.decode`) only as a copy, where something reads one.
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
from repro.scan.records import LeafRecord

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.scan.crl_model import EcosystemCrl

__all__ = [
    "CORPUS_FORMAT",
    "CrlEntryRecord",
    "EntryColumns",
    "brand_digests",
    "concat_parts",
    "corpus_digest",
    "decode_brand_leaves",
    "decode_crl_population",
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


#: int8 reason column value -> reason (-1 = no reason extension); an
#: unknown value raises KeyError, so a damaged column fails the decode.
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


class EntryColumns:
    """A run of CRL entries in the codec's entry columns.

    ``serial`` is the ``(n, 21)`` big-endian blob, ``revoked`` and
    ``expiry`` int32 day ordinals, ``reason`` int8 (-1 = no reason) and
    ``cert`` int32 (-1 = not a Leaf Set certificate): row ``i`` encodes
    the ``i``-th entry record.  A run is never edited in place, so runs
    sliced out of one column set share its arrays.
    """

    __slots__ = ("cert", "expiry", "reason", "revoked", "serial")
    #: attribute names in ``_ENTRY_COLUMNS`` order.
    _FIELDS = ("serial", "revoked", "reason", "expiry", "cert")

    def __init__(self, serial, revoked, reason, expiry, cert) -> None:
        self.serial = serial
        self.revoked = revoked
        self.reason = reason
        self.expiry = expiry
        self.cert = cert

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
    def from_arrays(cls, arrays: dict[str, np.ndarray], rows: slice) -> EntryColumns:
        """Rows ``rows`` of a column set's ``entry_*`` columns (views)."""
        return cls(*(_column(arrays, name, rows) for name in _ENTRY_COLUMNS))

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

    def __len__(self) -> int:
        return len(self.revoked)

    def __getitem__(self, rows) -> EntryColumns:
        """The rows selected by a slice, mask or index array."""
        return EntryColumns(*(getattr(self, name)[rows] for name in self._FIELDS))

    def arrays(self) -> dict[str, np.ndarray]:
        """The columns under their corpus names."""
        return {
            column: getattr(self, name)
            for column, name in zip(_ENTRY_COLUMNS, self._FIELDS)
        }

    def serial_numbers(self, rows=None) -> list[int]:
        """The serials (of ``rows`` only, if given) as Python ints."""
        return _serials(self.serial if rows is None else self.serial[rows])

    def serial_significance(self, rows=None) -> tuple[np.ndarray, np.ndarray]:
        """``(significant bytes, leading significant byte)`` of each
        serial (of ``rows`` only, if given): the minimal unsigned
        big-endian length and its first byte, both 0 for a zero serial."""
        blob = self.serial if rows is None else self.serial[rows]
        first = (blob != 0).argmax(axis=1)
        lead = blob[np.arange(len(blob)), first]
        return np.where(lead == 0, 0, _SERIAL_BYTES - first), lead


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------


def _encode_leaves(
    leaves: list[LeafRecord], crl_index_of_url: dict[str, int]
) -> dict[str, np.ndarray]:
    return {
        "leaf_not_before": _ordinals([leaf.not_before for leaf in leaves]),
        "leaf_not_after": _ordinals([leaf.not_after for leaf in leaves]),
        "leaf_birth": _ordinals([leaf.birth for leaf in leaves]),
        "leaf_death": _ordinals([leaf.death for leaf in leaves]),
        "leaf_revoked": _ordinals([leaf.revoked_at for leaf in leaves]),
        "leaf_reason": np.array(
            [
                -1 if leaf.revocation_reason is None else int(leaf.revocation_reason)
                for leaf in leaves
            ],
            np.int8,
        ),
        "leaf_is_ev": np.array([leaf.is_ev for leaf in leaves], np.uint8),
        "leaf_server_count": np.array(
            [leaf.server_count for leaf in leaves], np.int32
        ),
        "leaf_stapling": np.array(
            [leaf.stapling_servers for leaf in leaves], np.int32
        ),
        "leaf_alexa": np.array([leaf.alexa_rank or 0 for leaf in leaves], np.int32),
        "leaf_serial": serial_blob([leaf.serial_number for leaf in leaves]),
        "leaf_intermediate": np.array(
            [leaf.intermediate_id for leaf in leaves], np.int32
        ),
        "leaf_crl": np.array(
            [
                -1 if leaf.crl_url is None else crl_index_of_url[leaf.crl_url]
                for leaf in leaves
            ],
            np.int32,
        ),
        "leaf_has_ocsp": np.array(
            [leaf.ocsp_url is not None for leaf in leaves], np.uint8
        ),
    }


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


def encode_brand_parts(state, leaves: list[LeafRecord]) -> dict[str, np.ndarray]:
    """One brand's generated randomness as columns (worker -> parent).

    ``leaf_crl`` holds *global* CRL indexes (``layout.crl_base`` +
    local), so brand parts concatenate directly into the full corpus.
    """
    crl_index_of_url = {
        crl.url: state.layout.crl_base + i for i, crl in enumerate(state.crls)
    }
    arrays = _encode_leaves(leaves, crl_index_of_url)
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
    crl_index_of_url = {crl.url: i for i, crl in enumerate(ecosystem.crls)}
    arrays = _encode_leaves(ecosystem.leaves, crl_index_of_url)
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
#: (:func:`repro.scan.shardgen.assign_alexa_ranks`), so worker-built
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


def decode_brand_leaves(
    arrays: dict[str, np.ndarray], state, crls: list[EcosystemCrl]
) -> list[LeafRecord]:
    """Rebuild one brand's leaf records from the full corpus columns
    (rows ``layout.cert_base`` on); ``crls`` is the global CRL list the
    ``leaf_crl`` indexes point into."""
    layout = state.layout
    count = layout.cert_count
    rows = slice(layout.cert_base, layout.cert_base + count)
    days = DayInterner()

    def column(name: str) -> list:
        return _column(arrays, name, rows).tolist()

    def dates(name: str) -> list[datetime.date | None]:
        return [days[ordinal] if ordinal else None for ordinal in column(name)]

    crl_urls = [crl.url for crl in crls]
    ocsp_urls = state.ocsp_urls
    intermediates = column("leaf_intermediate")
    # Keys in LeafRecord field order: the records are built positionally.
    fields = {
        "cert_id": range(layout.cert_base, layout.cert_base + count),
        "brand": itertools.repeat(state.profile.name, count),
        "intermediate_id": intermediates,
        "serial_number": _serials(_column(arrays, "leaf_serial", rows)),
        "not_before": dates("leaf_not_before"),
        "not_after": dates("leaf_not_after"),
        "birth": dates("leaf_birth"),
        "death": dates("leaf_death"),
        "is_ev": [bool(flag) for flag in column("leaf_is_ev")],
        "crl_url": [
            None if index < 0 else crl_urls[index] for index in column("leaf_crl")
        ],
        "ocsp_url": [
            ocsp_urls[intermediate - layout.intermediate_base] if has_ocsp else None
            for intermediate, has_ocsp in zip(intermediates, column("leaf_has_ocsp"))
        ],
        "revoked_at": dates("leaf_revoked"),
        "revocation_reason": [_REASON_OF[code] for code in column("leaf_reason")],
        "server_count": column("leaf_server_count"),
        "stapling_servers": column("leaf_stapling"),
        "alexa_rank": [rank or None for rank in column("leaf_alexa")],
    }
    state.leaf_ids.extend(fields["cert_id"])
    return list(map(LeafRecord, *fields.values()))


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
        ordinals = getattr(columns, name)
        if len(ordinals) and not 1 <= ordinals.min() <= ordinals.max() <= _MAX_ORDINAL:
            raise ValueError(f"corpus column entry_{name} holds a day out of range")
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
