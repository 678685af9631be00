"""Outside-in tracer for the benchmark's traced runs.

The tracer never touches ``src/``.  It wraps public layer boundaries --
class methods and module attributes that callers resolve at call time --
for the length of one traced pass and restores them afterwards.  Every
boundary is reached by walking public attribute names down from the
``repro`` package (``repro.browsers.testsuite.BrowserTestHarness``), so
this module, like the rest of the benchmark, imports only ``repro`` and
``repro.api``.

Spans live in memory: name, start, end, parent span, and the id of the
workload operation (one experiment, one fleet, one store build/load/
verify, or the set-up) they belong to.  Timestamps come from
``time.perf_counter_ns``, so a span's self time -- its duration minus
the part its child spans cover -- is exact integer arithmetic.  Hot
boundaries (the DER encoder) are counted, never timed: a clock read per
call would swamp the work.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import time
from collections import Counter, defaultdict
from pathlib import Path

import repro
from repro import api

#: the 17 experiments, in sweep order; each gets ``experiments.<id>_s``.
EXPERIMENT_IDS = (
    "section3",
    "section42",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "table1",
    "table2",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "availability",
    "mechanisms",
    "serving",
)

#: the registered revocation mechanisms, in sweep order.
MECHANISMS = (
    "crl",
    "ocsp",
    "ocsp-stapling",
    "crlset",
    "crlite-cascade",
    "short-lived",
    "onecrl",
    "postcertificate",
)

#: layers whose self time is reported as ``<layer>.self_s``; ``bench``
#: is the benchmark's own glue around the facade calls.
LAYERS = (
    "experiments",
    "browsers",
    "pki",
    "net",
    "scan",
    "crlset",
    "mechanisms",
    "serve",
    "bench",
)

#: every per-layer metric of a traced run, as (name, unit).
LAYER_METRICS = (
    *((f"experiments.{eid}_s", "s") for eid in EXPERIMENT_IDS),
    ("browsers.build_pki_s", "s"),
    ("browsers.build_pki.calls", "count"),
    ("browsers.validate_s", "s"),
    ("browsers.validate.calls", "count"),
    ("browsers.case_p50_ms", "ms"),
    ("browsers.case_p99_ms", "ms"),
    ("browsers.pki_reuse_ratio", "ratio"),
    ("pki.sign_s", "s"),
    ("pki.sign.calls", "count"),
    ("asn1.encode_oid.calls", "count"),
    ("asn1.encode_tlv.calls", "count"),
    ("asn1.oid_distinct_ratio", "ratio"),
    ("net.fetch_s", "s"),
    ("net.fetch.calls", "count"),
    ("net.fetch.success_ratio", "ratio"),
    ("scan.generate_s", "s"),
    ("scan.store_write_s", "s"),
    ("scan.store_load_s", "s"),
    ("scan.crawl_index_s", "s"),
    ("scan.crawl_index.calls", "count"),
    ("scan.scans_s", "s"),
    ("scan.store_mb", "MB"),
    ("scan.leaves", "count"),
    ("scan.crl_entries", "count"),
    ("crlset.sweep_s", "s"),
    ("crlset.days", "days"),
    ("mechanisms.check_cost_s", "s"),
    ("mechanisms.check_cost.calls", "count"),
    *((f"serve.{name}.fleet_s", "s") for name in MECHANISMS),
    ("serve.handle.calls", "count"),
    ("serve.handle_p50_us", "us"),
    ("serve.handle_p99_us", "us"),
    ("serve.origin_s", "s"),
    ("serve.origin.calls", "count"),
    ("serve.deliver_s", "s"),
    ("serve.presigned_hit_ratio", "ratio"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("bench.spans", "count"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.setup_trace_overhead_frac", "ratio"),
)

_NS = 1e-9


class _Frame:
    """One open span."""

    __slots__ = ("span_id", "name", "start", "child_ns", "op", "attrs")

    def __init__(self, span_id, name, start, op, attrs) -> None:
        self.span_id = span_id
        self.name = name
        self.start = start
        self.child_ns = 0
        self.op = op
        self.attrs = attrs


class Tracer:
    """Records spans and counts at wrapped layer boundaries.

    A finished span is the tuple ``(span_id, name, start_ns, end_ns,
    parent_id, op_id, self_ns, attrs)``; times are relative to the
    tracer's creation.  Spans opened with ``operation=True`` start a new
    operation id unless an enclosing span already carries one, so the
    spans of one experiment, fleet or store call share an id.
    """

    def __init__(self) -> None:
        self.origin = time.perf_counter_ns()
        self.records: list[tuple] = []
        self.counts: Counter = Counter()
        self.distinct: defaultdict[str, set] = defaultdict(set)
        self.unmeasured: dict[str, str] = {}
        self._stack: list[_Frame] = []
        self._next_span = 0
        self._next_op = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _open(self, name: str, attrs: dict | None, operation: bool) -> _Frame:
        op = self._stack[-1].op if self._stack else None
        if operation and op is None:
            self._next_op += 1
            op = self._next_op
        self._next_span += 1
        return _Frame(
            self._next_span,
            name,
            time.perf_counter_ns() - self.origin,
            op,
            attrs,
        )

    def _close(self, frame: _Frame) -> None:
        end = time.perf_counter_ns() - self.origin
        duration = end - frame.start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_ns += duration
        self.records.append(
            (
                frame.span_id,
                frame.name,
                frame.start,
                end,
                parent.span_id if parent is not None else None,
                frame.op,
                duration - frame.child_ns,
                frame.attrs,
            )
        )

    @contextlib.contextmanager
    def span(self, name: str, *, operation: bool = False, **attrs):
        """Time a block the benchmark itself runs (a facade call)."""
        frame = self._open(name, attrs or None, operation)
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            self._close(frame)

    # -- boundaries ---------------------------------------------------------

    def _wrap_span(
        self, name, original, *, operation=False, attrs=None, before=None,
        after=None,
    ):
        tracer = self
        stack = self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            # A subclass override that calls up to a wrapped base method
            # is one boundary crossing, not two.
            if stack and stack[-1].name == name:
                return original(*args, **kwargs)
            frame = tracer._open(
                name, attrs(args) if attrs else None, operation
            )
            token = before(args) if before else None
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                tracer._close(frame)
            if after:
                after(args, result, token)
            return result

        return wrapper

    def _wrap_count(self, name, original, *, distinct_arg=False):
        counts = self.counts
        seen = self.distinct[name]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if distinct_arg:
                seen.add(args[0])
            return original(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attribute: str, wrapper) -> None:
        self._patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, wrapper)

    def _patched(self, owner, attribute: str) -> bool:
        return any(
            patched is owner and name == attribute
            for patched, name, _ in self._patches
        )

    def _patch_methods(self, cls: type, attribute: str, name: str, **options):
        """Wrap ``attribute`` on ``cls`` and on every subclass that
        overrides it, so the boundary holds for the whole hierarchy."""
        pending, seen = [cls], set()
        while pending:
            klass = pending.pop()
            if klass in seen:
                continue
            seen.add(klass)
            pending.extend(klass.__subclasses__())
            if attribute in vars(klass) and not self._patched(klass, attribute):
                self._patch(
                    klass,
                    attribute,
                    self._wrap_span(name, vars(klass)[attribute], **options),
                )

    def _resolve(self, metric: str, dotted: str):
        """Walk a public dotted path down from the ``repro`` package."""
        target = repro
        for part in dotted.split(".")[1:]:
            try:
                target = getattr(target, part)
            except AttributeError:
                self.unmeasured[metric] = f"{dotted} not found"
                return None
        return target

    def install(self) -> None:
        """Wrap every boundary :func:`_boundaries` lists."""
        for metric, dotted, attribute, name, options in _boundaries(self):
            owner = self._resolve(metric, dotted)
            if owner is None:
                continue
            if attribute not in vars(owner):
                self.unmeasured[metric] = f"{dotted}.{attribute} not found"
                continue
            if isinstance(owner, type):
                self._patch_methods(owner, attribute, name, **options)
            elif options.get("count"):
                self._patch(
                    owner,
                    attribute,
                    self._wrap_count(
                        name,
                        vars(owner)[attribute],
                        distinct_arg=options.get("distinct_arg", False),
                    ),
                )
            else:
                self._patch(
                    owner,
                    attribute,
                    self._wrap_span(name, vars(owner)[attribute], **options),
                )

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ------------------------------------------------------------

    def write_jsonl(self, path: Path, header: dict) -> None:
        """Write the spans, one JSON object a line, after a header line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a", encoding="utf-8") as out:
            out.write(json.dumps({"header": header}, sort_keys=True) + "\n")
            for record in self.records:
                span_id, name, start, end, parent, op, self_ns, attrs = record
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "op": op,
                            "self_ns": self_ns,
                            "attrs": attrs,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )

    def layer_metrics(self, inputs: dict) -> dict[str, float]:
        """Per-layer metrics of this traced pass (everything in
        :data:`LAYER_METRICS` except the two overhead ratios, which need
        the untraced passes too)."""
        total = Counter()
        self_by_name = Counter()
        self_total = Counter()
        calls = Counter()
        durations: defaultdict[str, list[int]] = defaultdict(list)
        fleets = Counter()
        for _, name, start, end, _, _, self_ns, attrs in self.records:
            total[name] += end - start
            self_by_name[name] += self_ns
            self_total[name.split(".", 1)[0]] += self_ns
            calls[name] += 1
            if name in ("browsers.run_case", "serve.handle"):
                durations[name].append(end - start)
            elif name == "serve.fleet":
                fleets[attrs["mechanism"]] += end - start

        def seconds(name: str) -> float:
            return total[name] * _NS

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        counts = self.counts
        metrics = {
            f"experiments.{eid}_s": seconds(f"experiments.{eid}")
            for eid in EXPERIMENT_IDS
        }
        metrics.update(
            {
                "browsers.build_pki_s": seconds("browsers.build_pki"),
                "browsers.build_pki.calls": calls["browsers.build_pki"],
                "browsers.validate_s": seconds("browsers.validate"),
                "browsers.validate.calls": calls["browsers.validate"],
                "browsers.case_p50_ms": _quantile(
                    durations["browsers.run_case"], 0.50
                ) * _NS * 1e3,
                "browsers.case_p99_ms": _quantile(
                    durations["browsers.run_case"], 0.99
                ) * _NS * 1e3,
                "browsers.pki_reuse_ratio": ratio(
                    len(self.distinct["browsers.build_pki"]),
                    calls["browsers.build_pki"],
                ),
                "pki.sign_s": seconds("pki.sign"),
                "pki.sign.calls": calls["pki.sign"],
                "asn1.encode_oid.calls": counts["asn1.encode_oid"],
                "asn1.encode_tlv.calls": counts["asn1.encode_tlv"],
                "asn1.oid_distinct_ratio": ratio(
                    len(self.distinct["asn1.encode_oid"]),
                    counts["asn1.encode_oid"],
                ),
                "net.fetch_s": seconds("net.fetch"),
                "net.fetch.calls": calls["net.fetch"],
                "net.fetch.success_ratio": ratio(
                    counts["net.fetch.successes"], counts["net.fetch.attempts"]
                ),
                "scan.generate_s": seconds("scan.generate"),
                # the corpus.build facade call minus ecosystem generation
                "scan.store_write_s": self_by_name["scan.corpus_build"] * _NS,
                "scan.store_load_s": seconds("scan.corpus_load"),
                "scan.crawl_index_s": seconds("scan.crawl_index"),
                "scan.crawl_index.calls": calls["scan.crawl_index"],
                "scan.scans_s": seconds("scan.scans"),
                "scan.store_mb": inputs.get("store_mb", 0.0),
                "scan.leaves": inputs["leaves"],
                "scan.crl_entries": inputs["crl_entries"],
                "crlset.sweep_s": seconds("crlset.sweep"),
                "crlset.days": counts["crlset.days"],
                "mechanisms.check_cost_s": seconds("mechanisms.check_cost"),
                "mechanisms.check_cost.calls": calls["mechanisms.check_cost"],
            }
        )
        for name in MECHANISMS:
            metrics[f"serve.{name}.fleet_s"] = fleets[name] * _NS
        metrics.update(
            {
                "serve.handle.calls": calls["serve.handle"],
                "serve.handle_p50_us": _quantile(
                    durations["serve.handle"], 0.50
                ) * _NS * 1e6,
                "serve.handle_p99_us": _quantile(
                    durations["serve.handle"], 0.99
                ) * _NS * 1e6,
                "serve.origin_s": seconds("serve.origin"),
                "serve.origin.calls": calls["serve.origin"],
                "serve.deliver_s": seconds("serve.deliver"),
                "serve.presigned_hit_ratio": ratio(
                    counts["serve.presigned_hits"], counts["serve.requests"]
                ),
            }
        )
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = self_total[layer] * _NS
        metrics["bench.spans"] = len(self.records)
        return metrics


def _quantile(samples: list[int], q: float) -> float:
    """Nearest-rank quantile (0 for no samples)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


class NullTracer:
    """The untraced path: no boundaries wrapped, spans are no-ops."""

    @contextlib.contextmanager
    def span(self, name: str, *, operation: bool = False, **attrs):
        yield

    @contextlib.contextmanager
    def installed(self):
        yield self


# -- the boundary table --------------------------------------------------------


def _boundaries(tracer: Tracer):
    """(metric, owner path, attribute, span name, options) per boundary.

    Options: ``operation`` starts a new operation id; ``attrs(args)``
    labels the span; ``before(args)``/``after(args, result, token)``
    record counts around the call; ``count`` wraps a module function
    with a counter only.
    """
    counts = tracer.counts

    def case_seen(args):
        tracer.distinct["browsers.build_pki"].add(args[1].test_id)

    def fetch_before(args):
        stats = args[0].stats
        return stats.successes, stats.attempts

    def fetch_after(args, result, token):
        stats = args[0].stats
        counts["net.fetch.successes"] += stats.successes - token[0]
        counts["net.fetch.attempts"] += stats.attempts - token[1]

    def handle_before(args):
        stats = args[0].stats
        return stats.presigned_hits, stats.requests

    def handle_after(args, result, token):
        stats = args[0].stats
        counts["serve.presigned_hits"] += stats.presigned_hits - token[0]
        counts["serve.requests"] += stats.requests - token[1]

    def crlset_days(args, result, token):
        counts["crlset.days"] += len(result.daily_entry_counts)

    for eid in EXPERIMENT_IDS:
        yield (
            f"experiments.{eid}_s", f"repro.experiments.{eid}", "run",
            f"experiments.{eid}", {"operation": True},
        )
    yield (
        "browsers.case_p50_ms", "repro.browsers.testsuite.BrowserTestHarness",
        "run_case", "browsers.run_case", {},
    )
    yield (
        "browsers.build_pki_s", "repro.browsers.testsuite.BrowserTestHarness",
        "build_pki", "browsers.build_pki", {"before": case_seen},
    )
    yield (
        "browsers.validate_s", "repro.browsers.policy.BrowserModel",
        "validate", "browsers.validate", {},
    )
    yield (
        "pki.sign_s", "repro.pki.certificate.CertificateBuilder", "sign",
        "pki.sign", {},
    )
    yield (
        "asn1.encode_oid.calls", "repro.asn1.der", "encode_oid",
        "asn1.encode_oid", {"count": True, "distinct_arg": True},
    )
    yield (
        "asn1.encode_tlv.calls", "repro.asn1.der", "encode_tlv",
        "asn1.encode_tlv", {"count": True},
    )
    for attribute in ("fetch_crl_result", "fetch_ocsp_result"):
        yield (
            "net.fetch_s", "repro.net.fetcher.NetworkFetcher", attribute,
            "net.fetch", {"before": fetch_before, "after": fetch_after},
        )
    yield (
        "scan.generate_s", "repro.scan.ecosystem.Ecosystem", "__init__",
        "scan.generate", {},
    )
    yield (
        "scan.crawl_index_s", "repro.scan.crawl_index.CrlSeries", "__init__",
        "scan.crawl_index", {},
    )
    yield (
        "scan.scans_s", "repro.scan.scanner.Rapid7Scanner", "run_all",
        "scan.scans", {},
    )
    yield (
        "crlset.sweep_s", "repro.crlset.builder.CrlSetBuilder", "run",
        "crlset.sweep", {"after": crlset_days},
    )
    # The registry hands out the concrete class behind each name.
    registry_get = tracer._resolve(
        "mechanisms.check_cost_s", "repro.mechanisms.get"
    )
    for name in api.study.list_mechanisms() if registry_get else ():
        cls = registry_get(name)
        yield (
            "mechanisms.check_cost_s", f"{cls.__module__}.{cls.__qualname__}",
            "check_cost", "mechanisms.check_cost", {},
        )
    yield (
        "serve.<mechanism>.fleet_s", "repro.serve.fleet.ClientFleet", "run",
        "serve.fleet",
        {"attrs": lambda args: {"mechanism": args[0].mechanism.name}},
    )
    yield (
        "serve.handle.calls", "repro.serve.core.StatusService", "handle",
        "serve.handle", {"before": handle_before, "after": handle_after},
    )
    yield (
        "serve.origin_s", "repro.serve.adapters.MechanismStorage", "body",
        "serve.origin", {},
    )
    yield (
        "serve.deliver_s", "repro.serve.adapters.FleetTransport", "deliver",
        "serve.deliver", {},
    )
