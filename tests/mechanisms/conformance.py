"""The mechanism-conformance harness (docs/MECHANISMS.md).

One reusable contract suite every registered
:class:`repro.mechanisms.RevocationMechanism` must pass before it may
join the sweeps.  ``test_conformance.py`` parametrizes these checks over
the whole registry (CI runs them per mechanism, including under the
``REPRO_FAULT_PROFILE`` matrix); a new mechanism gets the entire battery
for free the moment it registers.

The checks, mirroring the contract in ``repro/mechanisms/base.py``:

* :func:`check_metadata` -- registration metadata is concrete and
  self-consistent;
* :func:`check_determinism` -- two independently built studies at the
  same calibration produce identical lookups, windows, payloads, and
  session costs;
* :func:`check_soundness` -- a covered revoked certificate is never
  reported ``GOOD`` once the staleness window has elapsed, an uncovered
  one is ``NO_INFO`` (never vouched for), and a never-revoked
  certificate is never reported ``REVOKED``;
* :func:`check_window_semantics` -- vulnerability windows are
  non-negative, monotone in the update interval, and clamped to the
  certificate's residual life;
* :func:`check_cost_accounting` -- :class:`CheckCost` invariants hold
  and the session cache never charges twice for the same artifact;
* :func:`check_active_faults` -- under fault injection, every network
  check bills its attempts and latency honestly (failures are not
  free), and push/lifetime mechanisms stay out of the fetch path;
* :func:`check_report_parity` -- the mechanism's rendered sweep block is
  byte-identical whether it is swept alone or with the full registry.
"""

from __future__ import annotations

import datetime
import math

from repro.ca.authority import CertificateAuthority
from repro.experiments.mechanisms import mechanism_blocks
from repro.mechanisms import (
    Delivery,
    RevocationMechanism,
    SessionState,
    get,
)
from repro.net.cache import ClientCache
from repro.net.clock import SimClock
from repro.net.endpoints import CrlEndpoint, OcspEndpoint
from repro.net.faults import plan_from_profile
from repro.net.fetcher import NetworkFetcher, RetryPolicy
from repro.net.transport import Network
from repro.pki.keys import KeyPair
from repro.revocation.checker import CheckOutcome, FailureClass, RevocationChecker

__all__ = [
    "build_fault_pki",
    "check_active_faults",
    "check_cost_accounting",
    "check_determinism",
    "check_metadata",
    "check_report_parity",
    "check_soundness",
    "check_window_semantics",
    "revoked_sample",
    "sample_leaves",
]

#: update intervals (days) the monotonicity check sweeps, in order.
WINDOW_INTERVALS = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


def sample_leaves(ecosystem, limit: int = 250):
    """A deterministic spread of leaves (every Nth, ``limit`` total)."""
    step = max(1, len(ecosystem.leaves) // limit)
    return ecosystem.leaf_records(slice(None, None, step))[:limit]


def revoked_sample(ecosystem, end: datetime.date, limit: int = 250):
    """A deterministic spread of certificates revoked by ``end``."""
    revoked = [
        leaf
        for leaf in ecosystem.leaf_records()
        if leaf.revoked_at is not None and leaf.revoked_at <= end
    ]
    step = max(1, len(revoked) // limit)
    return revoked[::step][:limit]


# ---------------------------------------------------------------------------
# registration metadata
# ---------------------------------------------------------------------------


def check_metadata(mechanism: RevocationMechanism) -> None:
    cls = type(mechanism)
    assert isinstance(mechanism, RevocationMechanism)
    name = mechanism.name
    assert name and name != RevocationMechanism.name, (
        f"{cls.__name__} must define a concrete name"
    )
    assert name == name.lower(), f"mechanism name {name!r} must be lower-case"
    assert get(name) is cls, f"{name!r} resolves to a different class"
    assert mechanism.title and mechanism.title != RevocationMechanism.title
    assert isinstance(mechanism.delivery, Delivery)
    if mechanism.fallback_priority is not None:
        # Only connection-time mechanisms may join the availability
        # experiment's active fallback chain.
        assert mechanism.uses_network, (
            f"{name!r} has a fallback_priority but uses_network=False"
        )
    model = mechanism.update_model()
    assert model.update_interval_days >= 0
    assert model.propagation_lag_days >= 0
    assert model.staleness_window_days == (
        model.update_interval_days + model.propagation_lag_days
    )


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def check_determinism(
    mechanism: RevocationMechanism,
    twin: RevocationMechanism,
    end: datetime.date,
) -> None:
    """Same calibration, independently built substrate: every observable
    output must coincide (the seeded-pipeline contract)."""
    assert mechanism.name == twin.name
    assert mechanism.update_model() == twin.update_model()
    assert mechanism.payload_bytes(end) == twin.payload_bytes(end)

    dates = (end, end - datetime.timedelta(days=30))
    session_a, session_b = SessionState(), SessionState()
    for leaf_a, leaf_b in zip(
        sample_leaves(mechanism.ecosystem), sample_leaves(twin.ecosystem)
    ):
        assert leaf_a.cert_id == leaf_b.cert_id  # same substrate bytes
        assert mechanism.covers(leaf_a) == twin.covers(leaf_b)
        for at in dates:
            assert mechanism.lookup(leaf_a, at) is twin.lookup(leaf_b, at)
        if leaf_a.revoked_at is not None:
            assert mechanism.vulnerability_window_days(
                leaf_a
            ) == twin.vulnerability_window_days(leaf_b)
        cost_a = mechanism.check_cost(leaf_a, session_a)
        cost_b = twin.check_cost(leaf_b, session_b)
        assert cost_a == cost_b


# ---------------------------------------------------------------------------
# lookup soundness
# ---------------------------------------------------------------------------


def check_soundness(
    mechanism: RevocationMechanism, end: datetime.date
) -> None:
    """A revoked certificate is never vouched for once the mechanism's
    staleness window has elapsed; uncovered means ``NO_INFO``."""
    staleness = math.ceil(
        mechanism.update_model().staleness_window_days
    )
    for leaf in revoked_sample(mechanism.ecosystem, end):
        propagated = leaf.revoked_at + datetime.timedelta(days=staleness)
        for at in (propagated, propagated + datetime.timedelta(days=30)):
            outcome = mechanism.lookup(leaf, at)
            if mechanism.covers(leaf):
                assert outcome is not CheckOutcome.GOOD, (
                    f"{mechanism.name} reported GOOD for covered revoked "
                    f"cert {leaf.cert_id} at {at} "
                    f"(revoked {leaf.revoked_at}, staleness {staleness}d)"
                )
            else:
                assert outcome is CheckOutcome.NO_INFO, (
                    f"{mechanism.name} answered {outcome} for uncovered "
                    f"revoked cert {leaf.cert_id}; must be NO_INFO"
                )
    # The converse -- no false positives: a leaf with a fully clean
    # chain (neither it nor its intermediate ever revoked) is never
    # reported revoked.  Chain-scoped mechanisms (OneCRL) legitimately
    # block clean leaves under a revoked intermediate, so the ground
    # truth here is the chain, not the leaf alone.
    intermediates = {
        record.intermediate_id: record
        for record in mechanism.ecosystem.intermediates
    }
    for leaf in sample_leaves(mechanism.ecosystem):
        if leaf.revoked_at is not None:
            continue
        if intermediates[leaf.intermediate_id].revoked_at is not None:
            continue
        for at in (leaf.not_before, leaf.not_after, end):
            assert mechanism.lookup(leaf, at) is not CheckOutcome.REVOKED, (
                f"{mechanism.name} revoked cert {leaf.cert_id} at {at} "
                "despite its whole chain being clean"
            )


# ---------------------------------------------------------------------------
# vulnerability-window semantics
# ---------------------------------------------------------------------------


def check_window_semantics(
    mechanism: RevocationMechanism, end: datetime.date
) -> None:
    """Windows are non-negative, monotone non-decreasing in the update
    interval, and never outlive the certificate."""
    for leaf in revoked_sample(mechanism.ecosystem, end):
        residual = max(0.0, float((leaf.not_after - leaf.revoked_at).days))
        previous = None
        for interval in WINDOW_INTERVALS:
            window = mechanism.vulnerability_window_days(
                leaf, update_interval_days=interval
            )
            assert window >= 0.0, (
                f"{mechanism.name} window {window} < 0 for {leaf.cert_id}"
            )
            assert window <= residual, (
                f"{mechanism.name} window {window} outlives cert "
                f"{leaf.cert_id} (residual life {residual})"
            )
            if previous is not None:
                assert window >= previous, (
                    f"{mechanism.name} window shrank ({previous} -> "
                    f"{window}) as the update interval grew to {interval}"
                )
            previous = window
    never_revoked = next(
        leaf
        for leaf in mechanism.ecosystem.leaf_records()
        if leaf.revoked_at is None
    )
    try:
        mechanism.vulnerability_window_days(never_revoked)
    except ValueError:
        pass
    else:
        raise AssertionError(
            f"{mechanism.name} computed a window for a never-revoked cert"
        )


# ---------------------------------------------------------------------------
# client-cost accounting
# ---------------------------------------------------------------------------


def check_cost_accounting(mechanism: RevocationMechanism) -> None:
    """CheckCost invariants plus session-cache honesty."""
    session = SessionState()
    total_bytes = 0
    leaves = sample_leaves(mechanism.ecosystem, limit=120)
    for leaf in leaves:
        cost = mechanism.check_cost(leaf, session)
        assert cost.fetches == len(cost.fetched)
        assert cost.bytes_downloaded == sum(cost.fetched)
        assert all(size >= 0 for size in cost.fetched)
        assert not (cost.cache_hit and cost.fetched), (
            f"{mechanism.name} billed bytes for a cache hit"
        )
        total_bytes += cost.bytes_downloaded
    # Re-checking the same leaves in the same session must ride the
    # caches: no artifact is paid for twice.
    for leaf in leaves:
        again = mechanism.check_cost(leaf, session)
        assert again.bytes_downloaded == 0, (
            f"{mechanism.name} re-billed {again.bytes_downloaded} bytes "
            f"for cert {leaf.cert_id} within one session"
        )
    if not mechanism.uses_network:
        assert total_bytes == 0, (
            f"{mechanism.name} claims uses_network=False but billed "
            f"{total_bytes} bytes at browse time"
        )


# ---------------------------------------------------------------------------
# honest failure costs under fault injection
# ---------------------------------------------------------------------------

_UTC = datetime.timezone.utc
_PKI_NOW = datetime.datetime(2015, 4, 15, 9, 0, tzinfo=_UTC)
_N_FAULT_LEAVES = 12
_N_FAULT_REVOKED = 4


def build_fault_pki(seed: int = 7):
    """A dedicated one-root PKI serving CRL + OCSP, for driving
    ``active_check`` through the seeded fault layer (the availability
    experiment's harness, miniaturised)."""
    ca = CertificateAuthority.create_root(
        common_name="Conformance CA",
        seed=f"conformance/{seed}/root",
        not_before=datetime.datetime(2014, 6, 1, tzinfo=_UTC),
        not_after=datetime.datetime(2016, 6, 1, tzinfo=_UTC),
        crl_base_url="http://crl.conformance.example",
        ocsp_url="http://ocsp.conformance.example/q",
    )
    leaves = []
    for i in range(_N_FAULT_LEAVES):
        keys = KeyPair.generate(f"conformance/{seed}/leaf{i}")
        leaf = ca.issue_leaf(
            common_name=f"site{i}.conformance.example",
            public_key=keys.public_key,
            not_before=datetime.datetime(2014, 6, 1, tzinfo=_UTC),
            not_after=datetime.datetime(2016, 6, 1, tzinfo=_UTC),
        )
        leaves.append(leaf)
        if i < _N_FAULT_REVOKED:
            ca.revoke(
                leaf.serial_number, _PKI_NOW - datetime.timedelta(days=30)
            )
    return ca, leaves


def _wire_network(ca: CertificateAuthority, plan) -> Network:
    network = Network(faults=plan, timeout=datetime.timedelta(seconds=5))
    publisher = ca.crl_publisher
    for url in publisher.urls:
        network.register(
            url,
            CrlEndpoint(
                lambda at, publisher=publisher, url=url: publisher.encode(
                    url, at
                ).to_der()
            ),
        )
    network.register(ca.ocsp_url, OcspEndpoint(ca.ocsp_responder.respond))
    return network


def check_active_faults(
    mechanism: RevocationMechanism,
    profile: str,
    *,
    seed: int = 7,
) -> None:
    """Every byte and attempt a client pays under ``profile`` shows up in
    the returned :class:`CheckResult` and the fetcher's ``FetchStats``;
    push/lifetime mechanisms never enter the fetch path at all."""
    ca, leaves = build_fault_pki(seed)
    plan = plan_from_profile(profile, seed=seed)
    network = _wire_network(ca, plan)
    clock = SimClock(_PKI_NOW)
    definitive = 0
    for i, leaf in enumerate(leaves):
        # One independent client per connection (fresh caches and
        # breaker), so a warm cache never masks a later fault.
        fetcher = NetworkFetcher(
            network,
            clock_now=lambda: clock.now,
            cache=ClientCache(),
            retry_policy=RetryPolicy.aggressive(),
            seed=seed * 1_000 + i,
        )
        checker = RevocationChecker(fetcher)
        at = clock.advance(datetime.timedelta(seconds=30))
        result = mechanism.active_check(
            checker, leaf, at, issuer_key_hash=ca.issuer_key_hash
        )
        if not mechanism.uses_network:
            assert result is None, (
                f"{mechanism.name} (uses_network=False) performed a live "
                "network check"
            )
            assert fetcher.stats.attempts == 0
            continue
        if result is None:
            # Network mechanisms outside the active fallback chain
            # (e.g. stapling's handshake delivery) may decline.
            assert mechanism.fallback_priority is None, (
                f"{mechanism.name} is in the fallback chain but returned "
                "no check"
            )
            continue
        stats = fetcher.stats
        # Honest accounting: what the result bills equals what the
        # fetcher actually did -- failed attempts included.
        assert result.attempts == stats.attempts, (
            f"{mechanism.name} billed {result.attempts} attempts but the "
            f"fetcher made {stats.attempts}"
        )
        assert result.bytes_downloaded == stats.bytes_downloaded
        assert result.attempts >= 1
        assert result.latency >= datetime.timedelta(0)
        assert result.latency >= stats.latency_total, (
            f"{mechanism.name} under-billed latency: {result.latency} < "
            f"wire time {stats.latency_total}"
        )
        if result.is_definitive:
            definitive += 1
            assert result.failure is FailureClass.NONE
        else:
            # A failure is classified, and it was not free.
            assert result.failure is not FailureClass.NONE
            assert result.attempts >= 1
    if mechanism.uses_network and mechanism.fallback_priority is not None:
        if profile == "none":
            assert definitive == len(leaves), (
                f"{mechanism.name} failed checks on a fault-free network"
            )
        else:
            assert definitive >= 1, (
                f"{mechanism.name} got no definitive answer at all under "
                f"profile {profile!r}"
            )


# ---------------------------------------------------------------------------
# report-byte parity
# ---------------------------------------------------------------------------


def check_report_parity(
    name: str, full_blocks: dict[str, str], restricted_study
) -> None:
    """The mechanism's sweep block must not depend on which other
    mechanisms are registered: run_one's ``mechanism=`` restriction and
    the full-registry sweep render identical bytes."""
    blocks = mechanism_blocks(restricted_study)
    assert list(blocks) == [name]
    assert blocks[name] == full_blocks[name], (
        f"{name}'s sweep block changes when swept alone -- it must "
        "depend only on the substrate and the mechanism itself"
    )
