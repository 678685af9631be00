"""Desktop browser models, encoded from the paper's §6.3.

Every behavioural sentence in §6.3 maps to a hook override here; Table 2
is *derived* by running these models against the generated test suite, so
an encoding mistake shows up as a Table 2 mismatch.
"""

from __future__ import annotations

from repro.browsers.policy import BrowserModel, Position, UnavailableAction

__all__ = ["Chrome", "Firefox", "InternetExplorer", "Opera12", "Opera31", "Safari"]


class Chrome(BrowserModel):
    """Chrome 44.  Platform-specific validation libraries make its
    behaviour OS-dependent (§6.3 "Chrome")."""

    name = "Chrome"
    version = "44"

    def requests_staple(self) -> bool:
        return True

    def respects_revoked_staple(self) -> bool:
        # On OS X Chrome ignores a revoked staple and re-queries the
        # responder; on Windows it respects it.  (Linux untestable in the
        # paper; we model it like OS X.)
        return self.os == "windows"

    def rejects_unknown_ocsp(self) -> bool:
        return False  # incorrectly treats unknown as trusted

    def tries_crl_on_ocsp_failure(self, is_ev: bool) -> bool:
        return is_ev  # only EV certificates are checked at all

    def protocols_for(
        self, position: Position, has_crl: bool, has_ocsp: bool, is_ev: bool
    ) -> list[str]:
        if is_ev:
            # EV: all elements, OCSP preferred, CRL otherwise.
            if has_ocsp:
                return ["ocsp"]
            if has_crl:
                return ["crl"]
            return []
        if self.os == "windows":
            # Non-EV: only the first intermediate, and only if it has
            # *only* a CRL listed (no OCSP responders are checked).
            if position is Position.INT1 and has_crl and not has_ocsp:
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
        # Rejects only when the *first intermediate's CRL* is unavailable
        # -- for EV leaves on OS X/Linux, for all leaves on Windows.
        if position is Position.INT1 and protocol == "crl":
            if is_ev or self.os == "windows":
                return UnavailableAction.REJECT
        return UnavailableAction.ACCEPT


class Firefox(BrowserModel):
    """Firefox 40 (NSS); identical on all platforms."""

    name = "Firefox"
    version = "40"

    def requests_staple(self) -> bool:
        return True

    def rejects_unknown_ocsp(self) -> bool:
        return True  # the only browser family that gets this right

    def protocols_for(
        self, position: Position, has_crl: bool, has_ocsp: bool, is_ev: bool
    ) -> list[str]:
        # Never any CRLs.  OCSP: leaf only for non-EV, whole chain for EV.
        if not has_ocsp:
            return []
        if position is Position.LEAF or is_ev:
            return ["ocsp"]
        return []


class Opera12(BrowserModel):
    """Opera 12.17 (the pre-Chromium Presto engine)."""

    name = "Opera"
    version = "12.17"

    def requests_staple(self) -> bool:
        return True

    def rejects_unknown_ocsp(self) -> bool:
        return True

    def protocols_for(
        self, position: Position, has_crl: bool, has_ocsp: bool, is_ev: bool
    ) -> list[str]:
        # CRLs for every element; OCSP for the leaf only.
        if position is Position.LEAF and has_ocsp:
            return ["ocsp"]
        if has_crl:
            return ["crl"]
        return []


class Opera31(BrowserModel):
    """Opera 31 (Chromium fork); some behaviours are OS-dependent."""

    name = "Opera"
    version = "31.0"

    def requests_staple(self) -> bool:
        return True

    def respects_revoked_staple(self) -> bool:
        # Like Chrome, OS X Opera re-queries the responder instead.
        return self.os in ("linux", "windows")

    def rejects_unknown_ocsp(self) -> bool:
        return False

    def tries_crl_on_ocsp_failure(self, is_ev: bool) -> bool:
        return self.os in ("linux", "windows")

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
        # Rejects when the first intermediate (or the leaf, if there are
        # no intermediates) lacks revocation information -- for CRLs on
        # every platform, for OCSP only on Linux and Windows.
        first_element = position is Position.INT1 or (
            position is Position.LEAF and not has_intermediates
        )
        if first_element:
            if protocol == "crl":
                return UnavailableAction.REJECT
            if protocol == "ocsp" and self.os in ("linux", "windows"):
                return UnavailableAction.REJECT
        return UnavailableAction.ACCEPT


class Safari(BrowserModel):
    """Safari 6.0-8.0 on OS X."""

    name = "Safari"
    os = "osx"

    def __init__(self, version: str = "8.0") -> None:
        super().__init__(os="osx")
        self.version = version

    def requests_staple(self) -> bool:
        return False

    def rejects_unknown_ocsp(self) -> bool:
        return False

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
        # Rejects only for the first intermediate (or leaf when there are
        # none) and only if the certificate carries a CRL pointer.
        first_element = position is Position.INT1 or (
            position is Position.LEAF and not has_intermediates
        )
        if first_element and has_crl:
            return UnavailableAction.REJECT
        return UnavailableAction.ACCEPT


class InternetExplorer(BrowserModel):
    """IE 7.0-11.0; behaviour steps at 10.0 and again at 11.0."""

    name = "IE"
    os = "windows"

    def __init__(self, version: str, os: str = "windows") -> None:
        super().__init__(os=os)
        self.version = version

    @property
    def major(self) -> int:
        return int(self.version.split(".")[0])

    def requests_staple(self) -> bool:
        return True

    def rejects_unknown_ocsp(self) -> bool:
        return False

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
        first_element = position is Position.INT1 or (
            position is Position.LEAF and not has_intermediates
        )
        if first_element and position is not Position.LEAF:
            return UnavailableAction.REJECT
        if position is Position.LEAF:
            if not has_intermediates:
                # "First certificate in the chain" -- IE rejects here on
                # every version.
                return UnavailableAction.REJECT
            if self.major >= 11:
                return UnavailableAction.REJECT
            if self.major == 10:
                return UnavailableAction.WARN
        return UnavailableAction.ACCEPT
