"""OCSP responder backed by a CA's revocation ledger."""

from __future__ import annotations

import datetime
from typing import Callable

from repro.ca.signed_memo import SignedMemo
from repro.pki.keys import KeyPair
from repro.revocation.ocsp import (
    CertStatus,
    OcspRequest,
    OcspResponse,
    OcspResponseStatus,
)
from repro.revocation.reason import ReasonCode

__all__ = ["OcspResponder"]


class OcspResponder:
    """Answers OCSP queries for one issuer key.

    ``status_lookup(serial)`` returns ``None`` for unknown serials or a
    ``(revoked_at | None, reason | None)`` tuple for known ones -- the CA
    supplies it.  ``validity_period`` controls response cacheability
    (typically days, longer than most CRLs, §2.2).

    ``force_unknown`` makes every answer ``unknown`` -- one of the browser
    test suite's failure modes (§6.1).
    """

    def __init__(
        self,
        responder_keys: KeyPair,
        issuer_key_hash: bytes,
        status_lookup: Callable[
            [int], tuple[datetime.datetime | None, ReasonCode | None] | None
        ],
        validity_period: datetime.timedelta = datetime.timedelta(days=4),
        force_unknown: bool = False,
    ) -> None:
        self._keys = responder_keys
        self.issuer_key_hash = issuer_key_hash
        self._status_lookup = status_lookup
        self.validity_period = validity_period
        self.force_unknown = force_unknown
        self.queries_served = 0
        self._signed = SignedMemo()

    def respond(self, request: OcspRequest, at: datetime.datetime) -> OcspResponse:
        self.queries_served += 1
        if request.issuer_key_hash != self.issuer_key_hash:
            return OcspResponse.error(OcspResponseStatus.UNAUTHORIZED)
        this_update = at.replace(minute=0, second=0, microsecond=0)
        next_update = this_update + self.validity_period

        if self.force_unknown:
            return self._build(
                CertStatus.UNKNOWN, request.serial_number, this_update, next_update
            )

        record = self._status_lookup(request.serial_number)
        if record is None:
            # RFC 6960: a responder that has no record of the serial says
            # `unknown`; the spec is explicit that this is not "trusted".
            return self._build(
                CertStatus.UNKNOWN, request.serial_number, this_update, next_update
            )
        revoked_at, reason = record
        if revoked_at is not None and revoked_at <= at:
            return self._build(
                CertStatus.REVOKED,
                request.serial_number,
                this_update,
                next_update,
                revocation_time=revoked_at,
                revocation_reason=reason,
            )
        return self._build(
            CertStatus.GOOD, request.serial_number, this_update, next_update
        )

    def _build(
        self,
        status: CertStatus,
        serial: int,
        this_update: datetime.datetime,
        next_update: datetime.datetime,
        revocation_time: datetime.datetime | None = None,
        revocation_reason: ReasonCode | None = None,
    ) -> OcspResponse:
        """Sign one response, memoised on the responder (:class:`SignedMemo`).

        The key is every signed input (issuer key hash, status, serial,
        window, revocation time and reason), so a revocation or
        ``force_unknown`` yields a new key; nothing needs invalidating.
        """
        return self._signed.get(
            (
                self.issuer_key_hash, status, serial, this_update, next_update,
                revocation_time, revocation_reason,
            ),
            lambda: OcspResponse.build(
                responder_keys=self._keys,
                cert_status=status,
                issuer_key_hash=self.issuer_key_hash,
                serial_number=serial,
                this_update=this_update,
                next_update=next_update,
                revocation_time=revocation_time,
                revocation_reason=revocation_reason,
            ),
        )
