"""Scan-side CRL model.

:class:`EcosystemCrl` is the generator's view of one published CRL: the
materialised entries it can identify individually (observed leaf
revocations plus, on CRLSet-eligible CRLs, synthetic never-observed
revocations) and -- on the big CRLs -- a bulk :class:`HiddenPopulation`.
Byte sizes use exact DER arithmetic (:mod:`repro.revocation.sizing`).
The entry records stay the generator's product and the decoder's
output; the CRL timelines, the CRLSet sweep and the §7 analyses read the
same entries as codec columns (:attr:`EcosystemCrl.entry_columns`).
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.pki.name import Name
from repro.revocation.crl import CertificateRevocationList, RevokedEntry
from repro.revocation.reason import ReasonCode
from repro.scan.crawl_index import CrlSeries
from repro.scan.hidden import HiddenPopulation

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.scan.corpus import EntryColumns

__all__ = ["CrlEntryRecord", "EcosystemCrl"]

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
    entries: list[CrlEntryRecord] = field(default_factory=list)
    hidden: HiddenPopulation | None = None
    #: Leaf Set certificates whose CRL pointer names this URL.
    assigned_cert_count: int = 0
    #: lazily built event timeline (see :attr:`series`).
    _series: CrlSeries | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: the entries in the corpus codec's columns (see :attr:`entry_columns`).
    _entry_columns: EntryColumns | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        if name in ("entries", "hidden", "serial_bytes"):
            self.invalidate_series()

    def add_entry(self, entry: CrlEntryRecord) -> None:
        self.entries.append(entry)
        self.invalidate_series()  # timeline is stale; rebuilt on next query

    # -- entry columns and event timeline ------------------------------------

    @property
    def entry_columns(self) -> EntryColumns:
        """The entries as a :class:`~repro.scan.corpus.EntryColumns`.

        A decoded corpus hands each CRL the store rows its entries came
        from; otherwise the entries are encoded on first use.  Raises
        ``OverflowError`` for a serial the 21-byte codec cannot hold.
        """
        if self._entry_columns is None:
            from repro.scan.corpus import EntryColumns

            self._entry_columns = EntryColumns.encode(self.entries)
        return self._entry_columns

    @entry_columns.setter
    def entry_columns(self, columns: EntryColumns) -> None:
        """Adopt ``columns`` as the encoding of the current entries."""
        if len(columns) != len(self.entries):
            raise ValueError(
                f"{len(columns)} column rows for {len(self.entries)} entries"
            )
        self._entry_columns = columns

    @property
    def has_entry_columns(self) -> bool:
        return self._entry_columns is not None

    @property
    def series(self) -> CrlSeries:
        """The precomputed event timeline.

        Invalidated, together with the entry columns, by ``add_entry``
        and by reassigning ``entries``/``hidden``/``serial_bytes``;
        mutating entry records in place requires an explicit
        ``invalidate_series()``.
        """
        if self._series is None:
            self._series = CrlSeries(self)
        return self._series

    def invalidate_series(self) -> None:
        """Drop the timeline and the entry columns."""
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
