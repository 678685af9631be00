"""The browser revocation-checking policy engine.

:class:`BrowserModel` implements the mechanics shared by every browser --
walk the chain, consult CRL/OCSP through a
:class:`~repro.revocation.checker.RevocationChecker`, interpret staples --
while subclasses (one per browser family, in :mod:`repro.browsers.desktop`
and :mod:`repro.browsers.mobile`) override the *policy* hooks:

* which chain positions are checked, with which protocols, for EV vs
  non-EV leaves;
* whether a CRL is tried when the OCSP responder fails;
* whether an OCSP ``unknown`` is rejected (most browsers wrongly trust it);
* what happens when revocation information is unavailable (soft-fail
  accept, hard-fail reject, or a user-facing warning);
* whether OCSP staples are requested, used, and respected when revoked.

The hooks see a chain element only as two booleans (does it list a CRL,
an OCSP responder), so each hook's input domain is finite and
:func:`policy_of` can name a model's whole behaviour by its answers.
"""

from __future__ import annotations

import datetime
import enum
import itertools
from dataclasses import dataclass, field

from repro.pki.certificate import Certificate
from repro.revocation.checker import CheckOutcome, CheckResult, RevocationChecker
from repro.revocation.ocsp import OcspResponse

__all__ = [
    "BrowserModel",
    "ChainContext",
    "CheckRecord",
    "PROTOCOL_MECHANISMS",
    "Position",
    "UnavailableAction",
    "ValidationResult",
    "mechanism_for_protocol",
    "policy_of",
]

#: wire-protocol name (as recorded by the policy engine / Table 2) ->
#: registered revocation-mechanism name (repro.mechanisms,
#: docs/MECHANISMS.md).  The glue that lets browser-policy results be
#: priced and swept through the mechanism registry.
PROTOCOL_MECHANISMS = {
    "crl": "crl",
    "ocsp": "ocsp",
    "staple": "ocsp-stapling",
}


def mechanism_for_protocol(protocol: str) -> str:
    """Resolve a policy-engine protocol onto its registry name."""
    try:
        return PROTOCOL_MECHANISMS[protocol]
    except KeyError:
        raise KeyError(
            f"no registered mechanism for protocol {protocol!r}; "
            f"known: {sorted(PROTOCOL_MECHANISMS)}"
        ) from None


class Position(enum.Enum):
    """Chain positions as Table 2 groups them."""

    LEAF = "leaf"
    INT1 = "int1"  # the intermediate that signed the leaf
    INT2PLUS = "int2plus"

    @classmethod
    def of(cls, index: int) -> "Position":
        if index == 0:
            return cls.LEAF
        if index == 1:
            return cls.INT1
        return cls.INT2PLUS


class UnavailableAction(enum.Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    WARN = "warn"


@dataclass(frozen=True)
class ChainContext:
    """One connection, as seen by the browser."""

    chain: tuple[Certificate, ...]  # [leaf, int..., root]
    staple: OcspResponse | None
    checker: RevocationChecker
    at: datetime.datetime

    @property
    def leaf(self) -> Certificate:
        return self.chain[0]

    @property
    def is_ev(self) -> bool:
        return self.leaf.is_ev

    @property
    def has_intermediates(self) -> bool:
        return len(self.chain) > 2

    def issuer_of(self, index: int) -> Certificate:
        return self.chain[min(index + 1, len(self.chain) - 1)]


@dataclass(frozen=True)
class CheckRecord:
    position: Position
    protocol: str
    outcome: CheckOutcome


@dataclass
class ValidationResult:
    """What the browser decided and what it did on the wire."""

    accepted: bool = True
    warned: bool = False
    checks: list[CheckRecord] = field(default_factory=list)
    staple_requested: bool = False
    staple_used: bool = False
    rejection_reason: str = ""

    def record(self, position: Position, protocol: str, outcome: CheckOutcome):
        self.checks.append(CheckRecord(position, protocol, outcome))

    @property
    def performed_any_check(self) -> bool:
        return bool(self.checks) or self.staple_used

    def mechanisms_used(self) -> tuple[str, ...]:
        """Registry names of the mechanisms this validation exercised,
        in first-use order (deduplicated)."""
        seen: list[str] = []
        for check in self.checks:
            name = mechanism_for_protocol(check.protocol)
            if name not in seen:
                seen.append(name)
        return tuple(seen)


class BrowserModel:
    """Base engine; subclasses override the policy hooks."""

    name: str = "abstract"
    version: str = ""
    os: str = ""
    is_mobile: bool = False

    def __init__(self, os: str = "") -> None:
        if os:
            self.os = os

    @property
    def label(self) -> str:
        parts = [self.name]
        if self.version:
            parts.append(self.version)
        if self.os:
            parts.append(f"({self.os})")
        return " ".join(parts)

    # ------------------------------------------------------------------
    # policy hooks
    # ------------------------------------------------------------------

    def requests_staple(self) -> bool:
        return False

    def uses_staple(self) -> bool:
        """False for browsers that request staples but ignore them."""
        return self.requests_staple()

    def respects_revoked_staple(self) -> bool:
        """If False, a revoked staple is discarded and the responder is
        queried directly (Chrome/Opera on OS X)."""
        return True

    def rejects_unknown_ocsp(self) -> bool:
        """RFC-correct behaviour; most browsers get this wrong."""
        return False

    def protocols_for(
        self, position: Position, has_crl: bool, has_ocsp: bool, is_ev: bool
    ) -> list[str]:
        """Which protocols ("crl"/"ocsp") this browser consults for this
        chain position, whose certificate lists a CRL (``has_crl``) and
        an OCSP responder (``has_ocsp``), in preference order.  Empty
        list = no check."""
        return []

    def tries_crl_on_ocsp_failure(self, is_ev: bool) -> bool:
        return False

    def on_unavailable(
        self,
        position: Position,
        protocol: str,
        has_crl: bool,
        has_ocsp: bool,
        is_ev: bool,
        has_intermediates: bool,
    ) -> UnavailableAction:
        """Soft-fail by default; the crux of §2.3's debate."""
        return UnavailableAction.ACCEPT

    # ------------------------------------------------------------------
    # the engine
    # ------------------------------------------------------------------

    def validate(self, ctx: ChainContext) -> ValidationResult:
        result = ValidationResult()
        result.staple_requested = self.requests_staple()

        leaf_satisfied_by_staple = False
        if (
            result.staple_requested
            and ctx.staple is not None
            and self.uses_staple()
        ):
            staple_check = ctx.checker.check_staple(ctx.staple, ctx.at)
            if staple_check.outcome is CheckOutcome.REVOKED:
                if self.respects_revoked_staple():
                    result.staple_used = True
                    result.record(Position.LEAF, "staple", staple_check.outcome)
                    result.accepted = False
                    result.rejection_reason = "stapled response says revoked"
                    return result
                # Discard the staple; fall through to a live leaf check.
            elif staple_check.outcome is CheckOutcome.GOOD:
                result.staple_used = True
                result.record(Position.LEAF, "staple", staple_check.outcome)
                leaf_satisfied_by_staple = True
            elif staple_check.outcome is CheckOutcome.UNKNOWN:
                result.staple_used = True
                result.record(Position.LEAF, "staple", staple_check.outcome)
                if self.rejects_unknown_ocsp():
                    result.accepted = False
                    result.rejection_reason = "stapled response status unknown"
                    return result
                leaf_satisfied_by_staple = True

        # Walk every non-root element: leaf, int1, int2, ...
        for index in range(len(ctx.chain) - 1):
            certificate = ctx.chain[index]
            position = Position.of(index)
            if position is Position.LEAF and leaf_satisfied_by_staple:
                continue
            protocols = self.protocols_for(
                position,
                bool(certificate.crl_urls),
                bool(certificate.ocsp_urls),
                ctx.is_ev,
            )
            if not protocols:
                continue
            decision = self._check_element(ctx, index, position, protocols, result)
            if decision is not None:
                return decision
        return result

    def _check_element(
        self,
        ctx: ChainContext,
        index: int,
        position: Position,
        protocols: list[str],
        result: ValidationResult,
    ) -> ValidationResult | None:
        """Run the checks for one chain element; a non-None return is the
        final (rejecting) result."""
        certificate = ctx.chain[index]
        outcome = self._run_protocol(ctx, index, protocols[0])
        result.record(position, protocols[0], outcome.outcome)
        protocol_used = protocols[0]

        if (
            outcome.outcome in (CheckOutcome.UNAVAILABLE, CheckOutcome.NO_INFO)
            and protocol_used == "ocsp"
            and self.tries_crl_on_ocsp_failure(ctx.is_ev)
            and certificate.crl_urls
        ):
            outcome = self._run_protocol(ctx, index, "crl")
            result.record(position, "crl", outcome.outcome)
            protocol_used = "crl"

        if outcome.outcome is CheckOutcome.REVOKED:
            result.accepted = False
            result.rejection_reason = f"{position.value} revoked ({protocol_used})"
            return result
        if outcome.outcome is CheckOutcome.UNKNOWN:
            if self.rejects_unknown_ocsp():
                result.accepted = False
                result.rejection_reason = f"{position.value} status unknown"
                return result
            return None  # incorrectly treated as trusted
        if outcome.outcome in (CheckOutcome.UNAVAILABLE, CheckOutcome.NO_INFO):
            action = self.on_unavailable(
                position,
                protocol_used,
                bool(certificate.crl_urls),
                bool(certificate.ocsp_urls),
                ctx.is_ev,
                ctx.has_intermediates,
            )
            if action is UnavailableAction.REJECT:
                result.accepted = False
                result.rejection_reason = f"{position.value} info unavailable"
                return result
            if action is UnavailableAction.WARN:
                result.warned = True
        return None

    def _run_protocol(self, ctx: ChainContext, index: int, protocol: str) -> CheckResult:
        certificate = ctx.chain[index]
        if protocol == "crl":
            return ctx.checker.check_crl(certificate, ctx.at)
        issuer = ctx.issuer_of(index)
        return ctx.checker.check_ocsp(certificate, issuer.spki_hash, ctx.at)


#: the engine methods a policy resolves on the model's class.
_ENGINE = ("validate", "_check_element", "_run_protocol")
_FLAGS = (False, True)


def policy_of(browser: BrowserModel) -> tuple:
    """The browser's policy: every hook's answer over the hook's whole
    input domain, plus the engine methods its class resolves.

    Run against the same chain, two models with equal policies return
    equal validations: the engine reads nothing of a model but these
    methods and hooks.  ``on_unavailable`` is asked for "crl" (the
    fallback) and for each protocol that ``protocols_for`` answers
    first, the only protocols the engine passes it.
    """
    cls = type(browser)
    protocols = tuple(
        tuple(browser.protocols_for(*args))
        for args in itertools.product(Position, _FLAGS, _FLAGS, _FLAGS)
    )
    named = tuple(
        dict.fromkeys(["crl", *(answer[0] for answer in protocols if answer)])
    )
    return (
        tuple(getattr(cls, name) for name in _ENGINE),
        browser.requests_staple(),
        browser.uses_staple(),
        browser.respects_revoked_staple(),
        browser.rejects_unknown_ocsp(),
        tuple(browser.tries_crl_on_ocsp_failure(is_ev) for is_ev in _FLAGS),
        protocols,
        tuple(
            browser.on_unavailable(*args)
            for args in itertools.product(
                Position, named, _FLAGS, _FLAGS, _FLAGS, _FLAGS
            )
        ),
    )
