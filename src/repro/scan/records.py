"""Lightweight per-certificate records.

The paper's Leaf Set holds 5 M certificates; even scaled down, carrying a
fully materialised :class:`~repro.pki.certificate.Certificate` per leaf
would dominate memory for no analytical gain.  The ecosystem keeps its
Leaf Set in the corpus codec's leaf columns
(:class:`~repro.scan.corpus.LeafColumns`), and the counts over it read
those.  :class:`LeafRecord` is their decoded row type: a ``__slots__``
dataclass holding the fields the per-leaf APIs consume (the revocation
mechanisms, the serving catalog, the export), decoded by
:meth:`repro.scan.ecosystem.Ecosystem.leaf_records` only for the rows
handed to one.  Real certificates are materialised on demand (see
:meth:`repro.scan.ecosystem.Ecosystem.materialize`).
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

from repro.revocation.reason import ReasonCode

__all__ = ["IntermediateRecord", "LeafRecord"]


@dataclass(slots=True)
class LeafRecord:
    """One Leaf Set certificate and its observed lifecycle."""

    cert_id: int
    brand: str
    intermediate_id: int
    serial_number: int
    not_before: datetime.date
    not_after: datetime.date
    #: first/last dates the certificate was advertised by any host.
    birth: datetime.date
    death: datetime.date
    is_ev: bool
    crl_url: str | None
    ocsp_url: str | None
    revoked_at: datetime.date | None = None
    revocation_reason: ReasonCode | None = None
    #: number of IPv4 servers advertising this certificate.
    server_count: int = 1
    #: how many of those servers have OCSP Stapling enabled.
    stapling_servers: int = 0
    #: Alexa popularity rank of the certificate's site, if in the top list.
    alexa_rank: int | None = None

    # -- timeline predicates (paper §3.3) -----------------------------------

    def is_fresh(self, on: datetime.date) -> bool:
        """Within [notBefore, notAfter]."""
        return self.not_before <= on <= self.not_after

    def is_alive(self, on: datetime.date) -> bool:
        """Advertised by at least one host on ``on``."""
        return self.birth <= on <= self.death

    def is_revoked_by(self, on: datetime.date) -> bool:
        return self.revoked_at is not None and self.revoked_at <= on

    @property
    def is_revoked(self) -> bool:
        return self.revoked_at is not None

    @property
    def has_crl(self) -> bool:
        return self.crl_url is not None

    @property
    def has_ocsp(self) -> bool:
        return self.ocsp_url is not None

    @property
    def has_revocation_info(self) -> bool:
        return self.has_crl or self.has_ocsp

    @property
    def validity_days(self) -> int:
        return (self.not_after - self.not_before).days


@dataclass(slots=True)
class IntermediateRecord:
    """One Intermediate Set CA certificate."""

    intermediate_id: int
    brand: str
    subject: str
    #: SHA-256 of the intermediate's public key -- the CRLSet parent key.
    spki_hash: bytes
    has_crl: bool
    has_ocsp: bool
    not_before: datetime.date
    not_after: datetime.date
    revoked_at: datetime.date | None = None

    @property
    def has_revocation_info(self) -> bool:
        return self.has_crl or self.has_ocsp
