"""Scan-side CRL model.

:class:`EcosystemCrl` is the generator's view of one published CRL: the
materialised entries it can identify individually (observed leaf
revocations plus, on CRLSet-eligible CRLs, synthetic never-observed
revocations) and -- on the big CRLs -- a bulk :class:`HiddenPopulation`.
Byte sizes use exact DER arithmetic (:mod:`repro.revocation.sizing`).
The materialised entries are one run of the corpus codec's entry
columns (:class:`~repro.scan.corpus.EntryColumns`), which generation and
the store decode assign.  The CRL timelines, the CRLSet sweep and the
§7 analyses read those columns; entry records exist only as a decoded
copy, for :meth:`EcosystemCrl.visible_entries` and
:meth:`EcosystemCrl.to_crl`.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field

from repro.pki.name import Name
from repro.revocation.crl import CertificateRevocationList, RevokedEntry
from repro.revocation.sizing import CrlSizeModel
from repro.scan.corpus import CrlEntryRecord, EntryColumns
from repro.scan.crawl_index import CrlSeries
from repro.scan.hidden import HiddenPopulation

__all__ = ["EcosystemCrl"]

_UTC = datetime.timezone.utc

#: the entries of a CRL that lists none; one run serves every such CRL,
#: since columns are never edited in place.
_NO_ENTRIES = EntryColumns.concat([])


def _noon(day: datetime.date) -> datetime.datetime:
    return datetime.datetime(day.year, day.month, day.day, 12, 0, tzinfo=_UTC)


@dataclass
class EcosystemCrl:
    """One CRL in the synthetic ecosystem.

    Its materialised entries are one :class:`~repro.scan.corpus.EntryColumns`
    run.  Columns are replaced, never edited in place: assigning
    ``entries`` is the only write, and it drops the series.
    """

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
    #: the materialised entries, one row each.
    entries: EntryColumns = _NO_ENTRIES
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

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        if name in ("entries", "hidden", "serial_bytes"):
            self.invalidate_series()

    # -- event timeline ------------------------------------------------------

    @property
    def series(self) -> CrlSeries:
        """The precomputed event timeline, dropped by assigning
        ``entries``, ``hidden`` or ``serial_bytes``."""
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
        """Drop the timeline; the next query rebuilds it."""
        object.__setattr__(self, "_series", None)

    # -- daily views ---------------------------------------------------------

    def visible_entries(self, day: datetime.date) -> list[CrlEntryRecord]:
        """The records of the entries listed on ``day``: CAs list an
        entry from its revocation until its certificate expires."""
        ordinal = day.toordinal()
        entries = self.entries
        listed = (entries.revoked <= ordinal) & (ordinal <= entries.expiry)
        return entries[listed].decode()

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
