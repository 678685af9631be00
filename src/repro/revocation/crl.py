"""Certificate Revocation Lists (RFC 5280 §5).

A :class:`CertificateRevocationList` is the signed list of
(serial number, revocation date, reason) entries that a CA publishes.  DER
encoding is implemented for real so the study's CRL byte-size measurements
(Figures 5-6, Table 1; ~38 bytes/entry) fall out of actual encodings.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

from repro.asn1 import der
from repro.asn1.oid import OID
from repro.pki.keys import KeyPair, SignatureBackend, default_backend
from repro.pki.name import Name
from repro.revocation.reason import ReasonCode

__all__ = ["CertificateRevocationList", "RevokedEntry"]

_UTC = datetime.timezone.utc

# RFC 5280 TBSCertList context tag: crlExtensions [0].
_CTX_CRL_EXTENSIONS = 0


def _encode_time(when: datetime.datetime) -> bytes:
    if when.year <= 2049:
        return der.encode_utc_time(when)
    return der.encode_generalized_time(when)


@dataclass(frozen=True)
class RevokedEntry:
    """One revoked certificate in a CRL."""

    serial_number: int
    revocation_date: datetime.datetime
    reason: ReasonCode | None = None

    def to_der(self) -> bytes:
        parts = [
            der.encode_integer(self.serial_number),
            _encode_time(self.revocation_date),
        ]
        if self.reason is not None:
            reason_value = der.encode_tlv(
                der.Tag.ENUMERATED, bytes([int(self.reason)])
            )
            ext = der.encode_sequence(
                der.encode_oid(OID.CRL_REASON),
                der.encode_octet_string(reason_value),
            )
            parts.append(der.encode_sequence(ext))
        return der.encode_sequence(*parts)

    @classmethod
    def from_der_node(cls, node: der.DecodedValue) -> "RevokedEntry":
        serial = node.children[0].as_integer()
        revoked_at = node.children[1].as_datetime()
        reason: ReasonCode | None = None
        if len(node.children) > 2:
            for ext in node.children[2].children:
                if ext.children[0].as_oid() == OID.CRL_REASON:
                    inner = der.decode_all(ext.children[1].value)
                    reason = ReasonCode(inner.as_integer())
        return cls(serial_number=serial, revocation_date=revoked_at, reason=reason)


@dataclass(frozen=True)
class CertificateRevocationList:
    """A signed CRL.

    ``url`` is carried alongside (not part of the DER) so analyses can join
    CRLs with the distribution points found in certificates.
    """

    issuer: Name
    this_update: datetime.datetime
    next_update: datetime.datetime
    entries: tuple[RevokedEntry, ...]
    crl_number: int
    signature_algorithm_oid: str
    signature: bytes
    url: str = ""

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    def _serial_index(self) -> dict[int, RevokedEntry]:
        """serial -> entry, built once per instance.

        The dataclass is frozen and ``entries`` is a tuple, so the index
        can never go stale; mutation means constructing a new CRL, which
        starts with a fresh (unbuilt) index.
        """
        index = self.__dict__.get("_serial_index_cache")
        if index is None:
            index = {entry.serial_number: entry for entry in self.entries}
            object.__setattr__(self, "_serial_index_cache", index)
        return index

    def serial_numbers(self) -> frozenset[int]:
        cached = self.__dict__.get("_serials_cache")
        if cached is None:
            cached = frozenset(self._serial_index())
            object.__setattr__(self, "_serials_cache", cached)
        return cached

    def is_revoked(self, serial_number: int) -> bool:
        return serial_number in self._serial_index()

    def entry_for(self, serial_number: int) -> RevokedEntry | None:
        return self._serial_index().get(serial_number)

    def is_expired(self, at: datetime.datetime) -> bool:
        """True once ``nextUpdate`` has passed; clients must refetch."""
        return at > self.next_update

    # -- encoding ----------------------------------------------------------

    def _tbs_der(self) -> bytes:
        algorithm = der.encode_sequence(
            der.encode_oid(self.signature_algorithm_oid), der.encode_null()
        )
        parts = [
            der.encode_integer(1),  # version v2
            algorithm,
            self.issuer.to_der(),
            _encode_time(self.this_update),
            _encode_time(self.next_update),
        ]
        if self.entries:
            parts.append(
                der.encode_sequence_many(entry.to_der() for entry in self.entries)
            )
        crl_number_ext = der.encode_sequence(
            der.encode_oid(OID.CRL_NUMBER),
            der.encode_octet_string(der.encode_integer(self.crl_number)),
        )
        parts.append(
            der.encode_context(_CTX_CRL_EXTENSIONS, der.encode_sequence(crl_number_ext))
        )
        return der.encode_sequence(*parts)

    def to_der(self) -> bytes:
        """The DER encoding, built once per (immutable) instance."""
        cached = self.__dict__.get("_der_cache")
        if cached is None:
            algorithm = der.encode_sequence(
                der.encode_oid(self.signature_algorithm_oid), der.encode_null()
            )
            cached = der.encode_sequence(
                self._tbs_der(), algorithm, der.encode_bit_string(self.signature)
            )
            object.__setattr__(self, "_der_cache", cached)
        return cached

    @property
    def encoded_size(self) -> int:
        """Byte size of the DER encoding (what clients download).

        Computed with exact DER length arithmetic (no encoding).
        """
        cached = self.__dict__.get("_encoded_size_cache")
        if cached is None:
            # Deferred import: sizing imports RevokedEntry from this module.
            from repro.revocation.sizing import CrlSizeModel, revoked_entry_size

            model = CrlSizeModel(
                issuer=self.issuer,
                signature_size=len(self.signature),
                signature_algorithm_oid=self.signature_algorithm_oid,
                crl_number=self.crl_number,
                this_update=self.this_update,
                next_update=self.next_update,
            )
            entry_bytes = sum(
                revoked_entry_size(
                    entry.serial_number,
                    with_reason=entry.reason is not None,
                    generalized_time=entry.revocation_date.year > 2049,
                )
                for entry in self.entries
            )
            cached = model.size(entry_bytes)
            object.__setattr__(self, "_encoded_size_cache", cached)
        return cached

    def verify_signature(
        self, issuer_public_key: bytes, backend: SignatureBackend | None = None
    ) -> bool:
        backend = backend or default_backend()
        return backend.verify(issuer_public_key, self._tbs_der(), self.signature)

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        issuer: Name,
        issuer_keys: KeyPair,
        entries: list[RevokedEntry] | tuple[RevokedEntry, ...],
        this_update: datetime.datetime,
        next_update: datetime.datetime,
        crl_number: int = 1,
        url: str = "",
    ) -> "CertificateRevocationList":
        if next_update <= this_update:
            raise ValueError("nextUpdate must follow thisUpdate")
        ordered = tuple(sorted(entries, key=lambda e: e.serial_number))
        unsigned = cls(
            issuer=issuer,
            this_update=this_update,
            next_update=next_update,
            entries=ordered,
            crl_number=crl_number,
            signature_algorithm_oid=issuer_keys.backend.algorithm_oid,
            signature=b"",
            url=url,
        )
        signature = issuer_keys.sign(unsigned._tbs_der())
        return cls(
            issuer=issuer,
            this_update=this_update,
            next_update=next_update,
            entries=ordered,
            crl_number=crl_number,
            signature_algorithm_oid=issuer_keys.backend.algorithm_oid,
            signature=signature,
            url=url,
        )

    @classmethod
    def from_der(cls, data: bytes, url: str = "") -> "CertificateRevocationList":
        try:
            return cls._from_der(data, url)
        except der.Asn1Error:
            raise
        except (IndexError, ValueError, KeyError, TypeError) as exc:
            raise der.Asn1Error(f"malformed CRL: {exc}") from exc

    @classmethod
    def _from_der(cls, data: bytes, url: str = "") -> "CertificateRevocationList":
        node = der.decode_all(data)
        tbs, _algorithm, signature_node = node.children
        children = tbs.children
        index = 0
        if children[index].tag == der.Tag.INTEGER:
            index += 1  # version
        algorithm_oid = children[index].children[0].as_oid()
        index += 1
        issuer = Name.from_der_node(children[index])
        index += 1
        this_update = children[index].as_datetime()
        index += 1
        next_update = children[index].as_datetime()
        index += 1
        entries: list[RevokedEntry] = []
        if index < len(children) and children[index].tag == der.Tag.SEQUENCE:
            entries = [
                RevokedEntry.from_der_node(child)
                for child in children[index].children
            ]
            index += 1
        crl_number = 0
        if index < len(children) and children[index].context_number == 0:
            for ext in children[index].children[0].children:
                if ext.children[0].as_oid() == OID.CRL_NUMBER:
                    crl_number = der.decode_all(ext.children[1].value).as_integer()
        return cls(
            issuer=issuer,
            this_update=this_update,
            next_update=next_update,
            entries=tuple(entries),
            crl_number=crl_number,
            signature_algorithm_oid=algorithm_oid,
            signature=signature_node.as_bit_string(),
            url=url,
        )
