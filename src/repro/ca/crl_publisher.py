"""CRL publication with sharding.

CAs can shrink the CRL any one client must download by maintaining many
CRLs and assigning each certificate to one shard (§5.2, Table 1: GoDaddy
ran 322 CRLs; many CAs ran just a handful).  :class:`CrlPublisher` owns the
shards, assigns certificates at issuance, and produces both lightweight
daily views (for the crawler's time series) and real signed DER encodings
(for the byte-size measurements).
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field

from repro.ca.signed_memo import SignedMemo
from repro.pki.keys import KeyPair
from repro.pki.name import Name
from repro.revocation.crl import CertificateRevocationList, RevokedEntry
from repro.revocation.reason import ReasonCode

__all__ = ["CrlPublisher", "CrlShard", "CrlView"]

_UTC = datetime.timezone.utc


@dataclass
class CrlShard:
    """One CRL: a URL plus the set of serials assigned to it."""

    url: str
    assigned_serials: set[int] = field(default_factory=set)
    #: serial -> (revocation date, reason, certificate notAfter)
    revoked: dict[int, tuple[datetime.datetime, ReasonCode | None, datetime.datetime]] = field(
        default_factory=dict
    )

    def entries_at(self, at: datetime.datetime) -> list[RevokedEntry]:
        """Entries visible at ``at``: already revoked, cert not yet expired.

        Real CAs drop entries once the certificate expires (it can no
        longer be accepted anyway), which keeps CRLs from growing forever.
        """
        return [
            RevokedEntry(serial, revoked_at, reason)
            for serial, (revoked_at, reason, not_after) in self.revoked.items()
            if revoked_at <= at <= not_after
        ]


@dataclass(frozen=True)
class CrlView:
    """A lightweight snapshot of one CRL on one crawl day."""

    url: str
    date: datetime.datetime
    serials: frozenset[int]
    entry_count: int

    def is_revoked(self, serial: int) -> bool:
        return serial in self.serials


class CrlPublisher:
    """Owns a CA's CRL shards and their publication schedule."""

    def __init__(
        self,
        issuer_name: Name,
        issuer_keys: KeyPair,
        base_url: str,
        shard_count: int = 1,
        reissue_period: datetime.timedelta = datetime.timedelta(days=1),
    ) -> None:
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        self.issuer_name = issuer_name
        self._keys = issuer_keys
        self.reissue_period = reissue_period
        self.shards = [
            CrlShard(url=f"{base_url}/crl{i}.crl") for i in range(shard_count)
        ]
        self._shard_by_url = {shard.url: shard for shard in self.shards}
        self._crl_numbers: dict[str, int] = {shard.url: 0 for shard in self.shards}
        self._signed = SignedMemo()

    # -- assignment --------------------------------------------------------

    def assign(self, serial: int) -> str:
        """Assign a newly issued serial to a shard; returns the CRL URL.

        Round-robin by current shard population keeps shards balanced, as
        CAs that shard do in practice.
        """
        shard = min(self.shards, key=lambda s: len(s.assigned_serials))
        shard.assigned_serials.add(serial)
        return shard.url

    def shard_for(self, serial: int) -> CrlShard | None:
        for shard in self.shards:
            if serial in shard.assigned_serials:
                return shard
        return None

    # -- revocation --------------------------------------------------------

    def record_revocation(
        self,
        serial: int,
        revoked_at: datetime.datetime,
        reason: ReasonCode | None,
        cert_not_after: datetime.datetime,
    ) -> None:
        shard = self.shard_for(serial)
        if shard is None:
            raise KeyError(f"serial {serial} was never assigned to a CRL shard")
        shard.revoked[serial] = (revoked_at, reason, cert_not_after)

    # -- publication -------------------------------------------------------

    def view(self, url: str, at: datetime.datetime) -> CrlView:
        shard = self._shard_by_url[url]
        entries = shard.entries_at(at)
        return CrlView(
            url=url,
            date=at,
            serials=frozenset(e.serial_number for e in entries),
            entry_count=len(entries),
        )

    def views(self, at: datetime.datetime) -> list[CrlView]:
        return [self.view(shard.url, at) for shard in self.shards]

    def window(self, at: datetime.datetime) -> tuple[datetime.datetime, datetime.datetime]:
        """The thisUpdate/nextUpdate window covering ``at``."""
        midnight = at.replace(hour=0, minute=0, second=0, microsecond=0)
        period = self.reissue_period
        elapsed = at - midnight
        steps = int(elapsed / period)
        this_update = midnight + steps * period
        return this_update, this_update + period

    def encode(self, url: str, at: datetime.datetime) -> CertificateRevocationList:
        """Produce the real signed CRL a client downloading ``url`` at
        ``at`` would receive.

        Signed CRLs are memoised on the publisher (:class:`SignedMemo`),
        keyed by every signed input (issuer, URL, window, CRL number,
        entries).  The number goes up on every call, so the memo answers
        only after :meth:`restart_numbering` -- the browser suite's
        per-run reset, which replays the same CRL for every browser.  A
        revocation changes the entries and so the key; nothing needs
        invalidating.
        """
        shard = self._shard_by_url[url]
        this_update, next_update = self.window(at)
        self._crl_numbers[url] += 1
        number = self._crl_numbers[url]
        entries = tuple(shard.entries_at(at))
        return self._signed.get(
            (self.issuer_name, url, this_update, next_update, number, entries),
            lambda: CertificateRevocationList.build(
                issuer=self.issuer_name,
                issuer_keys=self._keys,
                entries=entries,
                this_update=this_update,
                next_update=next_update,
                crl_number=number,
                url=url,
            ),
        )

    def restart_numbering(self) -> None:
        """Number the next CRL of every shard 1 again, as a newly
        deployed publisher would (the browser suite's per-run reset)."""
        self._crl_numbers = dict.fromkeys(self._crl_numbers, 0)

    def encode_all(self, at: datetime.datetime) -> list[CertificateRevocationList]:
        return [self.encode(shard.url, at) for shard in self.shards]

    @property
    def urls(self) -> list[str]:
        return [shard.url for shard in self.shards]
