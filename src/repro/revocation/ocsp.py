"""Online Certificate Status Protocol (RFC 6960), simplified.

Requests identify a certificate by (issuer key hash, serial); responses
carry a signed status with a validity window.  The ``unknown`` status is
modelled explicitly because the paper's browser tests distinguish clients
that correctly reject ``unknown`` from those that incorrectly trust it.
"""

from __future__ import annotations

import datetime
import enum
from dataclasses import dataclass

from repro.asn1 import der
from repro.pki.keys import KeyPair, SignatureBackend, default_backend
from repro.revocation.reason import ReasonCode

__all__ = ["CertStatus", "OcspRequest", "OcspResponse", "OcspResponseStatus"]


class CertStatus(enum.Enum):
    """Per-certificate status in an OCSP response."""

    GOOD = "good"
    REVOKED = "revoked"
    UNKNOWN = "unknown"


class OcspResponseStatus(enum.Enum):
    """Top-level OCSPResponseStatus."""

    SUCCESSFUL = 0
    MALFORMED_REQUEST = 1
    INTERNAL_ERROR = 2
    TRY_LATER = 3
    UNAUTHORIZED = 6


@dataclass(frozen=True)
class OcspRequest:
    """A request for the status of one certificate.

    ``use_get`` mirrors the paper's note (§6.2 footnote 18) that browsers
    commonly issue GET requests while stock OpenSSL responders only accept
    POST; our responder honours both but records the method.
    """

    issuer_key_hash: bytes
    serial_number: int
    use_get: bool = True

    def to_der(self) -> bytes:
        cert_id = der.encode_sequence(
            der.encode_octet_string(self.issuer_key_hash),
            der.encode_integer(self.serial_number),
        )
        return der.encode_sequence(der.encode_sequence(cert_id))

    @classmethod
    def from_der(cls, data: bytes, use_get: bool = True) -> "OcspRequest":
        node = der.decode_all(data)
        cert_id = node.children[0].children[0]
        return cls(
            issuer_key_hash=cert_id.children[0].value,
            serial_number=cert_id.children[1].as_integer(),
            use_get=use_get,
        )


@dataclass(frozen=True)
class OcspResponse:
    """A signed single-certificate OCSP response."""

    response_status: OcspResponseStatus
    cert_status: CertStatus
    issuer_key_hash: bytes
    serial_number: int
    this_update: datetime.datetime
    next_update: datetime.datetime
    revocation_time: datetime.datetime | None = None
    revocation_reason: ReasonCode | None = None
    signature: bytes = b""
    signature_algorithm_oid: str = ""

    @property
    def is_successful(self) -> bool:
        return self.response_status is OcspResponseStatus.SUCCESSFUL

    def is_expired(self, at: datetime.datetime) -> bool:
        return at > self.next_update

    def _tbs_der(self) -> bytes:
        status_tag = {
            CertStatus.GOOD: 0,
            CertStatus.REVOKED: 1,
            CertStatus.UNKNOWN: 2,
        }[self.cert_status]
        parts = [
            der.encode_integer(self.response_status.value),
            der.encode_octet_string(self.issuer_key_hash),
            der.encode_integer(self.serial_number),
            der.encode_context(status_tag, b"", constructed=False),
            der.encode_generalized_time(self.this_update),
            der.encode_generalized_time(self.next_update),
        ]
        if self.revocation_time is not None:
            parts.append(der.encode_generalized_time(self.revocation_time))
        if self.revocation_reason is not None:
            parts.append(
                der.encode_tlv(der.Tag.ENUMERATED, bytes([int(self.revocation_reason)]))
            )
        return der.encode_sequence(*parts)

    def to_der(self) -> bytes:
        """The DER encoding, built once per (immutable) instance."""
        cached = self.__dict__.get("_der_cache")
        if cached is None:
            cached = der.encode_sequence(
                self._tbs_der(), der.encode_bit_string(self.signature)
            )
            object.__setattr__(self, "_der_cache", cached)
        return cached

    @property
    def encoded_size(self) -> int:
        return len(self.to_der())

    def verify_signature(
        self, responder_public_key: bytes, backend: SignatureBackend | None = None
    ) -> bool:
        backend = backend or default_backend()
        return backend.verify(responder_public_key, self._tbs_der(), self.signature)

    @classmethod
    def build(
        cls,
        responder_keys: KeyPair,
        cert_status: CertStatus,
        issuer_key_hash: bytes,
        serial_number: int,
        this_update: datetime.datetime,
        next_update: datetime.datetime,
        revocation_time: datetime.datetime | None = None,
        revocation_reason: ReasonCode | None = None,
        response_status: OcspResponseStatus = OcspResponseStatus.SUCCESSFUL,
    ) -> "OcspResponse":
        if next_update <= this_update:
            raise ValueError("nextUpdate must follow thisUpdate")
        unsigned = cls(
            response_status=response_status,
            cert_status=cert_status,
            issuer_key_hash=issuer_key_hash,
            serial_number=serial_number,
            this_update=this_update,
            next_update=next_update,
            revocation_time=revocation_time,
            revocation_reason=revocation_reason,
            signature_algorithm_oid=responder_keys.backend.algorithm_oid,
        )
        return cls(
            response_status=response_status,
            cert_status=cert_status,
            issuer_key_hash=issuer_key_hash,
            serial_number=serial_number,
            this_update=this_update,
            next_update=next_update,
            revocation_time=revocation_time,
            revocation_reason=revocation_reason,
            signature=responder_keys.sign(unsigned._tbs_der()),
            signature_algorithm_oid=responder_keys.backend.algorithm_oid,
        )

    @classmethod
    def from_der(cls, data: bytes) -> "OcspResponse":
        try:
            return cls._from_der(data)
        except der.Asn1Error:
            raise
        except (IndexError, ValueError, KeyError, TypeError) as exc:
            raise der.Asn1Error(f"malformed OCSP response: {exc}") from exc

    @classmethod
    def _from_der(cls, data: bytes) -> "OcspResponse":
        node = der.decode_all(data)
        tbs, signature_node = node.children
        children = tbs.children
        response_status = OcspResponseStatus(children[0].as_integer())
        issuer_key_hash = children[1].value
        serial = children[2].as_integer()
        status_tag = children[3].context_number
        cert_status = {0: CertStatus.GOOD, 1: CertStatus.REVOKED, 2: CertStatus.UNKNOWN}[
            status_tag
        ]
        this_update = children[4].as_datetime()
        next_update = children[5].as_datetime()
        revocation_time = None
        revocation_reason = None
        index = 6
        if index < len(children) and children[index].tag == der.Tag.GENERALIZED_TIME:
            revocation_time = children[index].as_datetime()
            index += 1
        if index < len(children) and children[index].tag == der.Tag.ENUMERATED:
            revocation_reason = ReasonCode(children[index].as_integer())
        return cls(
            response_status=response_status,
            cert_status=cert_status,
            issuer_key_hash=issuer_key_hash,
            serial_number=serial,
            this_update=this_update,
            next_update=next_update,
            revocation_time=revocation_time,
            revocation_reason=revocation_reason,
            signature=signature_node.as_bit_string(),
        )

    @classmethod
    def error(cls, status: OcspResponseStatus) -> "OcspResponse":
        epoch = datetime.datetime(1970, 1, 1, tzinfo=datetime.timezone.utc)
        return cls(
            response_status=status,
            cert_status=CertStatus.UNKNOWN,
            issuer_key_hash=b"",
            serial_number=0,
            this_update=epoch,
            next_update=epoch + datetime.timedelta(seconds=1),
        )
