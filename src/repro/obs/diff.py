"""Structural diff of two deterministic traces.

``python -m repro trace --diff A.jsonl B.jsonl`` drives this module:
two traces recorded by ``run --trace-out`` -- typically the same
invocation twice (must be identical), or a healthy vs. degraded
revocation path (``none`` vs ``flaky`` fault profiles, the paper's §6
failure modes) -- are aligned span tree against span tree and the
*behavioral delta* is reported as a first-class, machine-checkable
artifact:

* spans **added**/**removed** (subtrees present in only one trace);
* matched spans whose **step counts or volatile attributes** changed
  (``latency_ms``, ``bytes``, ``outcome``, ...);
* matched siblings whose relative **order** changed;
* **counter movement attributed to the span that owned it**: the tracer
  snapshots counters at span open/close (docs/OBSERVABILITY.md), so the
  movement inside each span is recorded, not inferred, and the diff can
  say "the extra ``fetch.outcomes{outcome=timeout}`` increments happened
  inside *this* leg span";
* registry-level metric deltas (counters, gauges, histograms) as a
  roll-up safety net for movement outside any span.

Alignment is structural, not positional: siblings are keyed by span
name plus **identity attributes** (everything except
:data:`VOLATILE_ATTRS`), and the k-th occurrence of a key in trace A
matches the k-th occurrence in trace B, so one inserted span does not
cascade into spurious downstream mismatches.

The contract this makes checkable (``--check`` exits 1 on a non-empty
diff): same seed + same config => empty diff; a degraded fetch path
shows up as added/changed fetcher and circuit-breaker spans carrying
the counter deltas that moved inside them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.obs.metrics import flat_key
from repro.obs.report import counters_inline, owned_counters, span_children

__all__ = [
    "TraceDiff",
    "VOLATILE_ATTRS",
    "diff_traces",
    "render_diff_json",
    "render_diff_text",
]

#: attributes that carry *cost or outcome*, not identity: two spans that
#: differ only here are the same logical span behaving differently, so
#: these are diffed on matched spans instead of keying the alignment.
VOLATILE_ATTRS = frozenset(
    {"attempts", "bytes", "error", "latency_ms", "outcome", "sim_start", "worker"}
)


@dataclass
class TraceDiff:
    """The structural delta between two traces.

    ``added``/``removed``/``changed``/``reordered`` are span-tree
    entries (each with a human-readable ``path``); ``metrics`` is the
    registry-level roll-up delta; ``meta`` maps differing header fields
    to their ``[a, b]`` values.  ``meta`` records *how the traces were
    produced* and deliberately does not count toward emptiness --
    :attr:`is_empty` is about behaviour.
    """

    added: list[dict] = field(default_factory=list)
    removed: list[dict] = field(default_factory=list)
    changed: list[dict] = field(default_factory=list)
    reordered: list[dict] = field(default_factory=list)
    metrics: list[dict] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        return not (
            self.added
            or self.removed
            or self.changed
            or self.reordered
            or self.metrics
        )

    def to_dict(self) -> dict:
        return {
            "empty": self.is_empty,
            "meta": self.meta,
            "added": self.added,
            "removed": self.removed,
            "changed": self.changed,
            "reordered": self.reordered,
            "metrics": self.metrics,
        }


# -- record plumbing -------------------------------------------------------


def _spans(records: list[dict]) -> list[dict]:
    return [record for record in records if record.get("type") == "span"]


def _metric_records(records: list[dict]) -> list[dict]:
    return [record for record in records if record.get("type") == "metric"]


def _meta(records: list[dict]) -> dict:
    for record in records:
        if record.get("type") == "meta":
            return {k: v for k, v in record.items() if k != "type"}
    return {}


def _steps(span: dict) -> int:
    if span["end"] is None:
        return 0
    return span["end"] - span["start"]


def _identity(span: dict) -> tuple:
    """Alignment key: name + sorted non-volatile attributes."""
    attrs = tuple(
        sorted(
            (key, str(value))
            for key, value in span["attrs"].items()
            if key not in VOLATILE_ATTRS
        )
    )
    return (span["name"], attrs)


def _label(span: dict, occurrence: int) -> str:
    name, attrs = _identity(span)
    label = name
    if attrs:
        label += "[" + ",".join(f"{key}={value}" for key, value in attrs) + "]"
    if occurrence:
        label += f"#{occurrence}"
    return label


def _join(parent_path: str, label: str) -> str:
    return f"{parent_path}/{label}" if parent_path else label


# -- alignment -------------------------------------------------------------


def _keyed(siblings: list[dict]) -> list[tuple[tuple, dict]]:
    """Occurrence-numbered alignment keys, in sibling (start) order."""
    counts: dict[tuple, int] = {}
    keyed = []
    for span in siblings:
        key = _identity(span)
        occurrence = counts.get(key, 0)
        counts[key] = occurrence + 1
        keyed.append(((key, occurrence), span))
    return keyed


def _subtree_entry(span: dict, occurrence: int, parent_path: str) -> dict:
    """An added/removed subtree, reported at its root.

    The root's counter mark already covers every descendant's movement
    (marks nest), so no per-descendant entries are needed.
    """
    return {
        "path": _join(parent_path, _label(span, occurrence)),
        "name": span["name"],
        "steps": _steps(span),
        "counters": dict(span.get("counters") or {}),
    }


def _compare_matched(
    a_span: dict,
    b_span: dict,
    path: str,
    a_children: dict,
    b_children: dict,
    diff: TraceDiff,
) -> None:
    entry: dict = {}
    if _steps(a_span) != _steps(b_span):
        entry["steps"] = [_steps(a_span), _steps(b_span)]
    attr_changes = {}
    for key in sorted(set(a_span["attrs"]) | set(b_span["attrs"])):
        a_value = a_span["attrs"].get(key)
        b_value = b_span["attrs"].get(key)
        if a_value != b_value:
            attr_changes[key] = [a_value, b_value]
    if attr_changes:
        entry["attrs"] = attr_changes
    owned_a = owned_counters(a_span, a_children)
    owned_b = owned_counters(b_span, b_children)
    counter_deltas = {}
    for key in sorted(set(owned_a) | set(owned_b)):
        delta = owned_b.get(key, 0) - owned_a.get(key, 0)
        if delta:
            counter_deltas[key] = {
                "a": owned_a.get(key, 0),
                "b": owned_b.get(key, 0),
                "delta": delta,
            }
    if counter_deltas:
        entry["counters"] = counter_deltas
    if entry:
        diff.changed.append(
            {"path": path, "name": a_span["name"], **entry}
        )


def _align(
    a_siblings: list[dict],
    b_siblings: list[dict],
    parent_path: str,
    a_children: dict,
    b_children: dict,
    diff: TraceDiff,
) -> None:
    a_keyed = _keyed(a_siblings)
    b_keyed = _keyed(b_siblings)
    a_map = dict(a_keyed)
    b_map = dict(b_keyed)
    a_order = [key for key, _ in a_keyed]
    b_order = [key for key, _ in b_keyed]
    matched_a = [key for key in a_order if key in b_map]
    matched_b = [key for key in b_order if key in a_map]
    if matched_a != matched_b:
        diff.reordered.append(
            {
                "path": parent_path or "<root>",
                "a": [_label(a_map[key], key[1]) for key in matched_a],
                "b": [_label(b_map[key], key[1]) for key in matched_b],
            }
        )
    for key in a_order:
        if key not in b_map:
            diff.removed.append(_subtree_entry(a_map[key], key[1], parent_path))
    for key in b_order:
        if key not in a_map:
            diff.added.append(_subtree_entry(b_map[key], key[1], parent_path))
    for key in matched_a:
        a_span = a_map[key]
        b_span = b_map[key]
        path = _join(parent_path, _label(a_span, key[1]))
        _compare_matched(a_span, b_span, path, a_children, b_children, diff)
        _align(
            a_children.get(a_span["id"], []),
            b_children.get(b_span["id"], []),
            path,
            a_children,
            b_children,
            diff,
        )


# -- metrics / meta --------------------------------------------------------


def _metric_key(record: dict) -> tuple[str, str]:
    return (record["kind"], flat_key(record["name"], record["labels"]))


def _metric_value(record: dict | None) -> dict | int | float:
    if record is None:
        return 0
    if record["kind"] == "histogram":
        return {
            "count": record["count"],
            "sum": record["sum"],
            "min": record["min"],
            "max": record["max"],
        }
    return record["value"]


def _diff_metrics(a_records: list[dict], b_records: list[dict]) -> list[dict]:
    a_index = {_metric_key(record): record for record in a_records}
    b_index = {_metric_key(record): record for record in b_records}
    entries = []
    for kind, key in sorted(set(a_index) | set(b_index)):
        a_value = _metric_value(a_index.get((kind, key)))
        b_value = _metric_value(b_index.get((kind, key)))
        if a_value == b_value:
            continue
        entry = {"kind": kind, "metric": key, "a": a_value, "b": b_value}
        if kind == "histogram":
            a_hist = a_value if isinstance(a_value, dict) else {"count": 0, "sum": 0}
            b_hist = b_value if isinstance(b_value, dict) else {"count": 0, "sum": 0}
            entry["delta"] = {
                "count": b_hist["count"] - a_hist["count"],
                "sum": b_hist["sum"] - a_hist["sum"],
            }
        else:
            entry["delta"] = b_value - a_value
        entries.append(entry)
    return entries


def _diff_meta(a_meta: dict, b_meta: dict) -> dict:
    fields = {}
    for key in sorted(set(a_meta) | set(b_meta)):
        a_value = a_meta.get(key)
        b_value = b_meta.get(key)
        if a_value != b_value:
            fields[key] = [a_value, b_value]
    return fields


# -- public API ------------------------------------------------------------


def diff_traces(a_records: list[dict], b_records: list[dict]) -> TraceDiff:
    """Structurally diff two traces (record lists from ``load_records``)."""
    a_spans = _spans(a_records)
    b_spans = _spans(b_records)
    a_children = span_children(a_spans)
    b_children = span_children(b_spans)
    diff = TraceDiff(meta=_diff_meta(_meta(a_records), _meta(b_records)))
    _align(
        a_children.get(None, []),
        b_children.get(None, []),
        "",
        a_children,
        b_children,
        diff,
    )
    diff.metrics = _diff_metrics(
        _metric_records(a_records), _metric_records(b_records)
    )
    return diff


def render_diff_json(
    diff: TraceDiff, a_label: str = "A", b_label: str = "B"
) -> str:
    payload = {"a": a_label, "b": b_label, **diff.to_dict()}
    return json.dumps(payload, indent=2, sort_keys=True)


def _scalar_delta(value) -> str:
    return f"{value:+g}"


def render_diff_text(
    diff: TraceDiff, a_label: str = "A", b_label: str = "B"
) -> str:
    parts = [f"trace diff: {a_label} vs {b_label}"]
    if diff.meta:
        parts.append(
            "meta: "
            + ", ".join(
                f"{key}: {values[0]!r} -> {values[1]!r}"
                for key, values in sorted(diff.meta.items())
            )
        )
    if diff.is_empty:
        parts.append("traces are structurally identical (empty diff)")
        return "\n".join(parts)
    parts.append(
        f"{len(diff.added)} added, {len(diff.removed)} removed, "
        f"{len(diff.changed)} changed, {len(diff.reordered)} reordered, "
        f"{len(diff.metrics)} metric delta(s)"
    )
    for marker, entries in (("+", diff.added), ("-", diff.removed)):
        for entry in entries:
            inline = counters_inline(entry["counters"])
            parts.append(
                f"  {marker} {entry['path']} ({entry['steps']} steps)"
                + (f"  [{inline}]" if inline else "")
            )
    for entry in diff.changed:
        bits = []
        if "steps" in entry:
            bits.append(f"steps {entry['steps'][0]} -> {entry['steps'][1]}")
        for key, values in sorted(entry.get("attrs", {}).items()):
            bits.append(f"{key} {values[0]!r} -> {values[1]!r}")
        parts.append(f"  ~ {entry['path']}" + (": " + "; ".join(bits) if bits else ""))
        for key, movement in sorted(entry.get("counters", {}).items()):
            parts.append(
                f"      {key}: {movement['a']:g} -> {movement['b']:g} "
                f"({_scalar_delta(movement['delta'])})"
            )
    for entry in diff.reordered:
        parts.append(
            f"  ± {entry['path']}: order "
            + " ".join(entry["a"])
            + " -> "
            + " ".join(entry["b"])
        )
    if diff.metrics:
        parts.append("metric deltas:")
        for entry in diff.metrics:
            if entry["kind"] == "histogram":
                delta = entry["delta"]
                parts.append(
                    f"  histogram {entry['metric']}: "
                    f"count {_scalar_delta(delta['count'])}, "
                    f"sum {_scalar_delta(delta['sum'])}"
                )
            else:
                parts.append(
                    f"  {entry['kind']} {entry['metric']}: "
                    f"{entry['a']:g} -> {entry['b']:g} "
                    f"({_scalar_delta(entry['delta'])})"
                )
    return "\n".join(parts)
