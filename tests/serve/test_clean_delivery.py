"""The fault-free fast paths of the serving layer against their slow twins.

* A delivery whose URL no fault rule matches is accounted once for the
  whole batch.  A plan whose only rule never fires
  (``FaultSpec(FLAKY, probability=0.0)`` on ``"*"``) still takes one
  decision per sub-batch, so the two fleets must agree on every byte and
  count.
* :class:`~repro.serve.adapters.SynthBody` keeps a synthetic body as
  ``(tag, size)``; its bytes and a fault's edits of them must equal the
  eager filler's.
"""

from __future__ import annotations

import datetime
import hashlib
from dataclasses import replace

import pytest

from repro.mechanisms import mechanism_names
from repro.net.faults import FaultKind, FaultPlan, FaultSpec
from repro.serve import ClientFleet, FleetConfig
from repro.serve.adapters import FleetTransport, SynthBody
from repro.serve.core import ServeRequest

MECHANISMS = sorted(mechanism_names())

CONFIG = FleetConfig(
    sessions=20_000, ticks=6, tick_seconds=900, representatives=2,
    catalog_size=512,
)
NOW = datetime.datetime(2015, 4, 15, 12, 0)


def _mechanism(study, name):
    for mechanism in study.mechanism_suite:
        if mechanism.name == name:
            return mechanism
    raise LookupError(name)


def _filler(tag: str, size: int) -> bytes:
    """The synthetic body as the serving layer has always built it."""
    seed = hashlib.sha256(tag.encode("utf-8")).digest()
    return (seed * (size // 32 + 1))[:size]


class TestCleanDelivery:
    @pytest.mark.parametrize("name", MECHANISMS)
    def test_empty_plan_equals_never_firing_rule(self, study, name):
        mechanism = _mechanism(study, name)
        clean = ClientFleet(study, mechanism, replace(CONFIG, fault_plan=FaultPlan()))
        never = FaultPlan(seed=CONFIG.seed).add(
            "*", FaultSpec(FaultKind.FLAKY, probability=0.0)
        )
        looped = ClientFleet(study, mechanism, replace(CONFIG, fault_plan=never))
        assert not clean.transport.plan.applies_to("http://a.serving/k")
        assert looped.transport.plan.applies_to("http://a.serving/k")
        fast, slow = clean.run(), looped.run()
        assert fast.render_block() == slow.render_block()
        assert fast.fetch.as_dict() == slow.fetch.as_dict()
        assert fast.latency.counts == slow.latency.counts
        assert fast.latency.total == slow.latency.total
        assert fast.latency.sum_ms == slow.latency.sum_ms
        assert {tier: stats.as_dict() for tier, stats in fast.cache_stats.items()} == {
            tier: stats.as_dict() for tier, stats in slow.cache_stats.items()
        }

    def test_rule_on_another_host_takes_the_clean_path(self):
        plan = FaultPlan(seed=1).add(
            "ocsp.other.serving/*", FaultSpec(FaultKind.FLAKY)
        )
        transport = FleetTransport(plan=plan)
        request = ServeRequest("ocsp", "cert/1", 0, "m", count=100)
        transport.deliver(request, SynthBody("t", 500), NOW, "origin")
        assert transport.stats.failures == 0
        assert transport.stats.successes == 100
        assert transport.stats.bytes_downloaded == 50_000


class TestSynthBody:
    @pytest.mark.parametrize("size", [0, 1, 31, 32, 33, 10**6])
    def test_bytes_equal_the_filler(self, size):
        body = SynthBody("crl/http://crl.example/a.crl", size)
        assert len(body) == size
        assert bytes(body) == _filler(body.tag, size)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            SynthBody("t", -1)

    @pytest.mark.parametrize(
        "spec",
        [
            FaultSpec(FaultKind.TRUNCATE, truncate_fraction=0.3),
            FaultSpec(FaultKind.CORRUPT),
        ],
        ids=["truncate", "corrupt"],
    )
    @pytest.mark.parametrize("size", [1, 33, 4096])
    def test_edits_equal_edits_of_eager_bytes(self, spec, size):
        lazy = SynthBody("ocsp/cert/7", size)
        eager = _filler(lazy.tag, size)
        for seed in range(5):
            decision = FaultPlan(seed=seed).add("*", spec).decide(
                "http://ocsp.m.serving/cert/7", NOW
            )
            assert decision.body_edits
            edited = decision.edit_body(lazy)
            assert isinstance(edited, bytes)
            assert edited == decision.edit_body(eager)
            assert edited != eager or (size == 1 and spec.kind is FaultKind.TRUNCATE)

    def test_no_edits_keep_the_body(self):
        lazy = SynthBody("t", 10)
        decision = FaultPlan().decide("http://x.serving/k", NOW)
        assert decision.edit_body(lazy) is lazy

    def test_storage_signs_lazy_bodies(self, study):
        fleet = ClientFleet(study, _mechanism(study, "crl"), CONFIG)
        catalog, _ = fleet._catalog()
        leaf = next(leaf for leaf in catalog if leaf.crl_url is not None)
        body = fleet.storage.body("crl", leaf.crl_url, fleet.clock.at(0))
        assert isinstance(body, SynthBody)
        assert len(body) == fleet.storage.signed_bytes > 0
