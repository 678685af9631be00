"""Scan-side CRL model.

:class:`EcosystemCrl` is the generator's view of one published CRL: the
materialised entries it can identify individually (observed leaf
revocations plus, on CRLSet-eligible CRLs, synthetic never-observed
revocations) and -- on the big CRLs -- a bulk :class:`HiddenPopulation`.
Byte sizes use exact DER arithmetic (:mod:`repro.revocation.sizing`).
A CRL's entries are kept in the form they were last written in: a list
of :class:`CrlEntryRecord` (``add_entry``, assigning ``entries``) or a
run of corpus codec columns (assigning
:attr:`EcosystemCrl.entry_columns`, which generation and the store
decode do).  The CRL timelines, the CRLSet sweep and the §7 analyses
read the columns; records are built from columns only when something
reads them (:class:`ColumnEntries`).
"""

from __future__ import annotations

import datetime
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.pki.name import Name
from repro.revocation.crl import CertificateRevocationList, RevokedEntry
from repro.revocation.reason import ReasonCode
from repro.revocation.sizing import CrlSizeModel
from repro.scan.crawl_index import CrlSeries
from repro.scan.hidden import HiddenPopulation

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.scan.corpus import EntryColumns

__all__ = ["ColumnEntries", "CrlEntryRecord", "EcosystemCrl"]

_UTC = datetime.timezone.utc


def _noon(day: datetime.date) -> datetime.datetime:
    return datetime.datetime(day.year, day.month, day.day, 12, 0, tzinfo=_UTC)


@dataclass(slots=True)
class CrlEntryRecord:
    """One individually identified CRL entry."""

    serial_number: int
    revoked_at: datetime.date
    reason: ReasonCode | None
    cert_not_after: datetime.date
    #: cert_id of the Leaf Set certificate this entry revokes, if observed.
    cert_id: int | None = None

    def visible_on(self, day: datetime.date) -> bool:
        """CAs list an entry from revocation until certificate expiry."""
        return self.revoked_at <= day <= self.cert_not_after


class ColumnEntries(Sequence):
    """The entries of a CRL whose written form is a run of entry columns.

    A read-only sequence: ``len()`` is the row count, and the records
    are decoded from the columns once, on the first item read or
    iteration (:meth:`~repro.scan.corpus.EntryColumns.decode`).  It
    compares equal to the list of the same records.  The records are a
    decoded copy: an edit to one reaches the CRL's counts, sizes and
    columns once :meth:`EcosystemCrl.invalidate_series` makes the
    records the written form.
    """

    __slots__ = ("_records", "columns")

    def __init__(self, columns: EntryColumns) -> None:
        self.columns = columns
        self._records: list[CrlEntryRecord] | None = None

    def _decoded(self) -> list[CrlEntryRecord]:
        if self._records is None:
            self._records = self.columns.decode()
        return self._records

    def __len__(self) -> int:
        return len(self.columns)

    def __getitem__(self, index):
        return self._decoded()[index]

    def __iter__(self):
        return iter(self._decoded())

    def __eq__(self, other) -> bool:
        if isinstance(other, ColumnEntries):
            other = other._decoded()
        if not isinstance(other, list):
            return NotImplemented
        return self._decoded() == other

    def __repr__(self) -> str:
        return f"<{len(self)} entries in columns>"


@dataclass
class EcosystemCrl:
    """One CRL in the synthetic ecosystem."""

    url: str
    brand: str
    intermediate_id: int
    issuer_name: Name
    issuer_key_hash: bytes
    signature_size: int
    signature_algorithm_oid: str
    serial_bytes: int
    reissue_hours: int = 24
    #: whether Google's internal crawl covers this CRL (CRLSet pipeline).
    covered: bool = False
    #: the records (the written form after ``add_entry`` or assigning a
    #: list) or a :class:`ColumnEntries` (after assigning
    #: :attr:`entry_columns`).
    entries: list[CrlEntryRecord] | ColumnEntries = field(default_factory=list)
    hidden: HiddenPopulation | None = None
    #: Leaf Set certificates whose CRL pointer names this URL.
    assigned_cert_count: int = 0
    #: size models by CRL header (see :attr:`size_model`); an ecosystem
    #: hands all of its CRLs one dict.
    size_models: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: lazily built event timeline (see :attr:`series`).
    _series: CrlSeries | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: the encoding of record entries, made on first use (see
    #: :attr:`entry_columns`).
    _entry_columns: EntryColumns | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        if name in ("entries", "hidden", "serial_bytes"):
            self.invalidate_series()

    def add_entry(self, entry: CrlEntryRecord) -> None:
        """Append a record; column entries become records first."""
        if isinstance(self.entries, ColumnEntries):
            self.entries = list(self.entries)
        self.entries.append(entry)
        self.invalidate_series()  # timeline is stale; rebuilt on next query

    # -- entry columns and event timeline ------------------------------------

    @property
    def entry_columns(self) -> EntryColumns:
        """The entries as a :class:`~repro.scan.corpus.EntryColumns`.

        The assigned columns, or the encoding of the record entries,
        made on first use.  Raises ``OverflowError`` for a serial the
        21-byte codec cannot hold.
        """
        if isinstance(self.entries, ColumnEntries):
            return self.entries.columns
        if self._entry_columns is None:
            from repro.scan.corpus import EntryColumns

            self._entry_columns = EntryColumns.encode(self.entries)
        return self._entry_columns

    @entry_columns.setter
    def entry_columns(self, columns: EntryColumns) -> None:
        """Replace the entries with ``columns``: ``entries`` becomes
        their :class:`ColumnEntries`, and the timeline is dropped."""
        self.entries = ColumnEntries(columns)

    @property
    def series(self) -> CrlSeries:
        """The precomputed event timeline.

        Invalidated by ``add_entry`` and by reassigning ``entries``,
        ``entry_columns``, ``hidden`` or ``serial_bytes``; mutating
        entry records in place (read ones, on a column-backed CRL)
        requires an explicit ``invalidate_series()``.
        """
        if self._series is None:
            self._series = CrlSeries(self)
        return self._series

    @property
    def size_model(self) -> CrlSizeModel:
        """The exact-size model of this CRL's fixed fields, built on
        first use and shared through :attr:`size_models` by every CRL
        with the same issuer, signature size and algorithm.  A ``Name``
        compares by its RDNs, which fix its DER, so CRLs share a model
        exactly when their headers encode alike."""
        key = (self.issuer_name, self.signature_size, self.signature_algorithm_oid)
        model = self.size_models.get(key)
        if model is None:
            model = self.size_models[key] = CrlSizeModel(
                issuer=self.issuer_name,
                signature_size=self.signature_size,
                signature_algorithm_oid=self.signature_algorithm_oid,
            )
        return model

    def invalidate_series(self) -> None:
        """Drop the timeline and the encoding of record entries.

        Column entries whose records were read become those records,
        so an edit made to one in place takes effect; column entries
        never read stay columns."""
        entries = getattr(self, "entries", None)  # unset during __init__
        if isinstance(entries, ColumnEntries) and entries._records is not None:
            object.__setattr__(self, "entries", list(entries._records))
        object.__setattr__(self, "_series", None)
        object.__setattr__(self, "_entry_columns", None)

    # -- daily views ---------------------------------------------------------

    def visible_entries(self, day: datetime.date) -> list[CrlEntryRecord]:
        return [entry for entry in self.entries if entry.visible_on(day)]

    def entry_count(self, day: datetime.date) -> int:
        return self.series.entry_count(day)

    def additions_on(self, day: datetime.date) -> int:
        return self.series.additions_on(day)

    # -- sizing --------------------------------------------------------------

    def size_bytes(self, day: datetime.date) -> int:
        """Exact DER size of this CRL as published on ``day``."""
        return self.series.size_bytes(day)

    # -- real encoding (materialised entries only) ---------------------------

    @staticmethod
    def _to_revoked_entry(entry: CrlEntryRecord) -> RevokedEntry:
        return RevokedEntry(
            serial_number=entry.serial_number,
            revocation_date=_noon(entry.revoked_at),
            reason=entry.reason,
        )

    def to_crl(self, day: datetime.date, issuer_keys) -> CertificateRevocationList:
        """A real signed CRL with the materialised entries visible on
        ``day`` (the big hidden-bulk CRLs are never encoded in full)."""
        this_update = _noon(day)
        return CertificateRevocationList.build(
            issuer=self.issuer_name,
            issuer_keys=issuer_keys,
            entries=[
                self._to_revoked_entry(entry) for entry in self.visible_entries(day)
            ],
            this_update=this_update,
            next_update=this_update + datetime.timedelta(hours=self.reissue_hours),
            url=self.url,
        )
