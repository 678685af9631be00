"""A maximally strict reference client.

No 2015 browser implements the paper's §2.3 ideal: check every chain
element, prefer staples, fall back across protocols, treat ``unknown``
and unavailability as fatal.  :class:`StrictClient` is that ideal,
encoded in the same policy framework as the real browsers -- the upper
bound the Table 2 scorecards are measured against, and the client model
used by the extension studies (multi-stapling, hard-fail ablations).
"""

from __future__ import annotations

from repro.browsers.policy import BrowserModel, Position, UnavailableAction

__all__ = ["StrictClient"]


class StrictClient(BrowserModel):
    """Checks everything, hard-fails on anything less than ``good``."""

    name = "StrictClient"
    version = "reference"

    def requests_staple(self) -> bool:
        return True

    def respects_revoked_staple(self) -> bool:
        return True

    def rejects_unknown_ocsp(self) -> bool:
        return True

    def tries_crl_on_ocsp_failure(self, is_ev: bool) -> bool:
        return True

    def protocols_for(
        self, position: Position, has_crl: bool, has_ocsp: bool, is_ev: bool
    ) -> list[str]:
        if has_ocsp:
            return ["ocsp"]
        if has_crl:
            return ["crl"]
        return []

    def on_unavailable(
        self,
        position: Position,
        protocol: str,
        has_crl: bool,
        has_ocsp: bool,
        is_ev: bool,
        has_intermediates: bool,
    ) -> UnavailableAction:
        return UnavailableAction.REJECT
