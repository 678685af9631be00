"""Certificate Revocation Lists as a pluggable mechanism (paper §5.1).

The client pulls the issuing CA's full CRL (cacheable until its
``nextUpdate``, ~24 h here) and checks the serial locally.  A
CRL-capable client whose certificate carries no CRL pointer falls back
to OCSP, as the availability experiment's fallback chain does.
"""

from __future__ import annotations

import datetime

from repro.mechanisms.base import (
    OCSP_RESPONSE_BYTES,
    CheckCost,
    Delivery,
    RevocationMechanism,
    ServeModel,
    SessionState,
    UpdateModel,
)
from repro.mechanisms.registry import register
from repro.revocation.checker import CheckOutcome
from repro.scan.records import LeafRecord


@register
class CrlMechanism(RevocationMechanism):
    name = "crl"
    title = "CRL (pull per CA, cache to nextUpdate)"
    delivery = Delivery.PULL_PER_CA
    uses_network = True
    #: tried after OCSP in the availability fallback chain (§6.1:
    #: clients query the responder first, then fetch the CRL).
    fallback_priority = 20

    def __init__(self, host) -> None:
        super().__init__(host)
        self._size_cache: dict[str, int] = {}

    def covers(self, leaf: LeafRecord) -> bool:
        return leaf.crl_url is not None

    def lookup(self, leaf: LeafRecord, at: datetime.date) -> CheckOutcome:
        if not self.covers(leaf):
            return CheckOutcome.NO_INFO
        if leaf.revoked_at is not None and leaf.revoked_at <= at:
            return CheckOutcome.REVOKED
        if at > leaf.not_after:
            # The CA may drop the entry once the certificate expires
            # (RFC 5280 permits it); an expired cert has no status.
            return CheckOutcome.UNKNOWN
        return CheckOutcome.GOOD

    def update_model(self) -> UpdateModel:
        # Reissued daily; clients trust a cached copy to nextUpdate.
        return UpdateModel(update_interval_days=1.0, propagation_lag_days=1.0)

    def serve_model(self) -> ServeModel:
        # Per-CA shards, re-signed daily; shard sizes come from the
        # ecosystem's exact incremental CRL sizing.
        return ServeModel(endpoint="crl", presign_interval_days=1.0)

    def _crl_size(self, url: str) -> int:
        size = self._size_cache.get(url)
        if size is None:
            size = self.ecosystem.crl_for_url(url).size_bytes(
                self.measurement_end
            )
            self._size_cache[url] = size
        return size

    def check_cost(self, leaf: LeafRecord, session: SessionState) -> CheckCost:
        if leaf.crl_url is not None:
            if leaf.crl_url in session.crl_urls:
                return CheckCost(cache_hit=True)
            session.crl_urls.add(leaf.crl_url)
            return CheckCost(fetched=(self._crl_size(leaf.crl_url),))
        if leaf.ocsp_url is not None:
            if leaf.cert_id in session.ocsp_certs:
                return CheckCost(cache_hit=True)
            session.ocsp_certs.add(leaf.cert_id)
            return CheckCost(fetched=(OCSP_RESPONSE_BYTES,))
        return CheckCost()  # never-revocable certificate

    def payload_bytes(self, at: datetime.date) -> int:
        """The whole published CRL corpus on ``at`` (what Figure 5's
        crawler downloads daily)."""
        return sum(crl.size_bytes(at) for crl in self.ecosystem.crls)

    def active_check(self, checker, certificate, at, issuer_key_hash=None):
        return checker.check_crl(certificate, at)
