"""Intraprocedural dataflow/taint substrate for the dataflow rules.

The syntactic rules inspect one AST node at a time; this module gives
the rules that need more -- RPR003 (unordered emission), RPR013
(nondeterministic values in digest inputs), RPR014 (stats exported
around the sorted-key helpers) -- a shared per-function forward taint
analysis over the stdlib ``ast``:

* **Scopes.**  Every function (at any nesting), every class body, and
  the module top level is analysed as its own scope, in isolation --
  the analysis is deliberately intraprocedural: a value that crosses a
  call boundary is assumed sanitised (an unknown callee may impose
  order), which keeps the false-positive rate near zero at the cost of
  missing cross-function flows.
* **Taints.**  A taint records *what kind* of nondeterminism a value
  carries (``unordered``, ``rng``, ``clock``, ``identity``,
  ``stats``), *where* it was introduced, and whether the value still
  *is* the tainted object (``direct``) or merely embeds it inside a
  container -- the bit that decides whether wrapping the carrier in
  ``sorted(...)`` at the sink is a safe mechanical fix.
* **Propagation.**  Assignments (plain, augmented, annotated, tuple
  unpacking, walrus), ``for``/comprehension targets, f-strings, binary
  and boolean operators, subscripts, and in-place mutations
  (``.add``/``.update``/``.append``/``.extend``) all forward taint;
  loop bodies are executed twice so loop-carried taint converges.
* **Sanitizers.**  ``sorted``/``min``/``max``/``sum``/``len``/``any``/
  ``all`` clear the ``unordered`` kind (order cannot reach the output
  through them), ``.as_dict()`` clears ``stats``, membership tests
  clear ``unordered``, and seeded ``random.Random(seed)`` instances
  never introduce ``rng`` in the first place.  Sanitizers are
  kind-specific on purpose: ``sum(times)`` is order-neutral but still
  clock-derived.  ``identity`` (an ``id()``/``hash()`` value, which
  changes from process to process) is dropped where it only *looks
  up* an object -- a dict key or a subscript -- since the value found
  does not depend on the address.

The result of a file pass is a list of :class:`Flow` records -- taint
kind, sink, minimal carrier expression, and (where one exists) a
machine-applicable :class:`~repro.analysis.findings.Suggestion` -- that
the rules in :mod:`repro.analysis.rules` turn into findings.  Flows are
computed once per file and cached on the :class:`FileContext`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace

from repro.analysis.findings import SAFETY_SAFE, SAFETY_UNSAFE, Suggestion

__all__ = [
    "Flow",
    "Taint",
    "file_flows",
    "WALL_CLOCK_CALLS",
    "EMIT_SINKS",
    "EMIT_SINK_SUFFIXES",
    "ORDER_NEUTRAL_CALLS",
]

# -- taint kinds -----------------------------------------------------------

UNORDERED = "unordered"
RNG = "rng"
CLOCK = "clock"
IDENTITY = "identity"
STATS = "stats"

#: kinds a value read from the host process carries (RPR013's sources).
_HOST_KINDS = (RNG, CLOCK, IDENTITY)

# -- flow categories (one per dataflow rule) -------------------------------

CAT_EMIT_UNORDERED = "emit-unordered"  # RPR003
CAT_DIGEST_NONDET = "digest-nondet"  # RPR013
CAT_STATS_EXPORT = "stats-export"  # RPR014

# -- sources and sinks -----------------------------------------------------

WALL_CLOCK_CALLS = frozenset(
    {
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
    }
)

_AMBIENT_RNG_CALLS = frozenset({"os.urandom", "uuid.uuid4"})

#: builtins whose value is an object's address or a per-process salted
#: hash (``PYTHONHASHSEED``): stable inside one process only.
_IDENTITY_CALLS = frozenset({"id", "hash"})

EMIT_SINKS = frozenset({"json.dump", "json.dumps"})
EMIT_SINK_SUFFIXES = ("format_table",)

ORDER_NEUTRAL_CALLS = frozenset(
    {"sorted", "min", "max", "sum", "len", "any", "all"}
)

#: constructors whose output feeds the corpus substrate (RPR013 sinks).
_ARRAY_SINKS = frozenset(
    {
        "numpy.array",
        "numpy.asarray",
        "numpy.frombuffer",
        "numpy.fromiter",
        "array.array",
    }
)

#: (callee suffix, positional index, keyword) of the seed and name
#: arguments that fix generated keys, certificates and domain names
#: (RPR013 sinks, besides every ``seed=`` keyword).
_SEED_ARGS = (
    ("KeyPair.generate", 0, "seed"),
    ("TestPki", 0, "test_id"),
)

#: builtins that preserve both the value and its iteration order.
_ORDER_PRESERVING = frozenset(
    {"list", "tuple", "iter", "reversed", "enumerate", "zip", "map", "filter"}
)

#: builtins that derive a new value embedding the old one.
_DERIVING = frozenset({"str", "repr", "bytes", "bytearray", "format", "dict"})

#: dataclasses whose instances must export through ``.as_dict()``
#: (the sorted-key report helpers) rather than ``vars``/``asdict``.
_STATS_CLASSES = frozenset({"FetchStats", "FailureRecord"})

#: in-place mutators that pour their argument's taint into the receiver.
_MUTATORS = frozenset({"add", "update", "append", "extend", "insert", "appendleft"})


@dataclass(frozen=True)
class Taint:
    """One kind of nondeterminism attached to a value."""

    kind: str
    line: int
    col: int
    detail: str  # human description of the introducing construct
    direct: bool = True  # the value IS the tainted object, not a container of it

    def embedded(self) -> "Taint":
        return replace(self, direct=False) if self.direct else self


@dataclass(frozen=True)
class Flow:
    """One tainted value reaching one sink."""

    category: str
    sink_name: str  # resolved sink display, e.g. "json.dumps"
    sink_line: int
    sink_col: int
    carrier: ast.AST  # minimal expression carrying the taint at the sink
    taint: Taint
    suggestion: Suggestion | None


_EMPTY: frozenset[Taint] = frozenset()


def _strip(taints: frozenset[Taint], kind: str) -> frozenset[Taint]:
    return frozenset(t for t in taints if t.kind != kind)


def _embed(taints: frozenset[Taint]) -> frozenset[Taint]:
    return frozenset(t.embedded() for t in taints)


def _has(taints: frozenset[Taint], kind: str) -> bool:
    return any(t.kind == kind for t in taints)


class _ScopeAnalyzer:
    """Forward taint propagation over one scope's statements."""

    def __init__(self, ctx, source: str) -> None:
        self.ctx = ctx
        self.source = source
        self.env: dict[str, frozenset[Taint]] = {}
        self.types: dict[str, str] = {}
        self.memo: dict[int, frozenset[Taint]] = {}
        self.flows: list[Flow] = []
        self._flow_keys: set[tuple] = set()

    # -- entry points ------------------------------------------------------

    def run_function(self, node: ast.AST) -> None:
        args = node.args
        for arg in [
            *getattr(args, "posonlyargs", []),
            *args.args,
            *args.kwonlyargs,
            *filter(None, [args.vararg, args.kwarg]),
        ]:
            if arg.annotation is not None:
                resolved = self.ctx.imports.resolve(arg.annotation)
                if resolved and resolved.rsplit(".", 1)[-1] in _STATS_CLASSES:
                    self.types[arg.arg] = resolved.rsplit(".", 1)[-1]
        self._exec_block(node.body)

    def run_statements(self, body: list[ast.stmt]) -> None:
        self._exec_block(body)

    # -- statement execution ----------------------------------------------

    def _exec_block(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._exec(stmt)

    def _exec(self, stmt: ast.stmt) -> None:
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return  # nested scopes are analysed separately
        if isinstance(stmt, ast.Assign):
            taints = self._eval(stmt.value)
            for target in stmt.targets:
                self._bind(target, stmt.value, taints)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, stmt.value, self._eval(stmt.value))
            elif isinstance(stmt.target, ast.Name) and stmt.annotation is not None:
                resolved = self.ctx.imports.resolve(stmt.annotation)
                if resolved and resolved.rsplit(".", 1)[-1] in _STATS_CLASSES:
                    self.types[stmt.target.id] = resolved.rsplit(".", 1)[-1]
        elif isinstance(stmt, ast.AugAssign):
            taints = self._eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                self.env[stmt.target.id] = (
                    self.env.get(stmt.target.id, _EMPTY) | taints
                )
            else:
                self._taint_base(stmt.target, taints)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
            self._apply_mutation(stmt.value)
        elif isinstance(stmt, (ast.Return, ast.Raise)):
            value = getattr(stmt, "value", None) or getattr(stmt, "exc", None)
            if value is not None:
                self._eval(value)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test)
            before = dict(self.env)
            self._exec_block(stmt.body)
            after_body = self.env
            self.env = before
            self._exec_block(stmt.orelse)
            self._merge(after_body)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_taints = self._eval(stmt.iter)
            self._bind(stmt.target, stmt.iter, _embed(iter_taints))
            self._exec_block(stmt.body)
            self._exec_block(stmt.body)  # loop-carried taint converges
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test)
            self._exec_block(stmt.body)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taints = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, item.context_expr, taints)
            self._exec_block(stmt.body)
        elif isinstance(stmt, ast.Try) or stmt.__class__.__name__ == "TryStar":
            self._exec_block(stmt.body)
            for handler in stmt.handlers:
                self._exec_block(handler.body)
            self._exec_block(stmt.orelse)
            self._exec_block(stmt.finalbody)
        elif stmt.__class__.__name__ == "Match":
            self._eval(stmt.subject)
            merged = dict(self.env)
            for case in stmt.cases:
                self.env = dict(merged)
                self._exec_block(case.body)
                for name, taints in self.env.items():
                    merged[name] = merged.get(name, _EMPTY) | taints
            self.env = merged
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.env.pop(target.id, None)
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test)

    def _merge(self, other_env: dict[str, frozenset[Taint]]) -> None:
        for name, taints in other_env.items():
            self.env[name] = self.env.get(name, _EMPTY) | taints

    def _bind(
        self, target: ast.expr, value: ast.expr | None, taints: frozenset[Taint]
    ) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = taints
            self.types.pop(target.id, None)
            if isinstance(value, ast.Call):
                resolved = self.ctx.imports.resolve(value.func)
                if resolved:
                    short = resolved.rsplit(".", 1)[-1]
                    if short in _STATS_CLASSES:
                        self.types[target.id] = short
                    elif resolved.startswith("hashlib."):
                        self.types[target.id] = "_digest"
                    elif resolved == "random.Random":
                        self.types[target.id] = (
                            "_seeded_rng"
                            if value.args or value.keywords
                            else "_unseeded_rng"
                        )
                    elif resolved == "random.SystemRandom":
                        self.types[target.id] = "_unseeded_rng"
        elif isinstance(target, (ast.Tuple, ast.List)):
            elements = (
                value.elts
                if isinstance(value, (ast.Tuple, ast.List))
                and len(value.elts) == len(target.elts)
                else None
            )
            for index, element in enumerate(target.elts):
                if elements is not None:
                    self._bind(
                        element, elements[index], self.memo.get(id(elements[index]), _EMPTY)
                    )
                else:
                    self._bind(element, None, _embed(taints))
        elif isinstance(target, ast.Starred):
            self._bind(target.value, None, _embed(taints))
        else:
            # obj.attr = tainted / d[k] = tainted: the container absorbs it.
            self._taint_base(target, _embed(taints))

    def _taint_base(self, target: ast.expr, taints: frozenset[Taint]) -> None:
        node = target
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        if isinstance(node, ast.Name):
            self.env[node.id] = self.env.get(node.id, _EMPTY) | taints

    def _apply_mutation(self, expr: ast.expr) -> None:
        """``x.add(v)`` / ``x.update(v)`` / ``x.append(v)`` pour taint into x."""
        if not (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr in _MUTATORS
        ):
            return
        arg_taints: frozenset[Taint] = frozenset()
        for arg in [*expr.args, *[kw.value for kw in expr.keywords]]:
            arg_taints |= self.memo.get(id(arg), _EMPTY)
        if arg_taints:
            self._taint_base(expr.func.value, _embed(arg_taints))

    # -- expression evaluation --------------------------------------------

    def _eval(self, node: ast.expr) -> frozenset[Taint]:
        taints = self._eval_inner(node)
        self.memo[id(node)] = taints
        return taints

    def _eval_inner(self, node: ast.expr) -> frozenset[Taint]:
        if isinstance(node, ast.Name):
            return self.env.get(node.id, _EMPTY)
        if isinstance(node, ast.Constant):
            return _EMPTY
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Set):
            inner: frozenset[Taint] = frozenset()
            for element in node.elts:
                inner |= self._eval(element)
            return _embed(_strip(inner, UNORDERED)) | {
                Taint(UNORDERED, node.lineno, node.col_offset, "set literal")
            }
        if isinstance(node, ast.SetComp):
            inner = self._eval_comp(node)
            return _embed(_strip(inner, UNORDERED)) | {
                Taint(
                    UNORDERED, node.lineno, node.col_offset, "set comprehension"
                )
            }
        if isinstance(node, (ast.List, ast.Tuple)):
            out: frozenset[Taint] = frozenset()
            for element in node.elts:
                out |= _embed(self._eval(element))
            return out
        if isinstance(node, ast.Dict):
            out = frozenset()
            for key in node.keys:
                if key is not None:
                    out |= _embed(_strip(self._eval(key), IDENTITY))
            for value in node.values:
                out |= _embed(self._eval(value))
            return out
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            return self._eval_comp(node)
        if isinstance(node, ast.DictComp):
            gen_taints = self._eval_generators(node.generators)
            local = dict(self.env)
            key_taints = _embed(_strip(self._eval(node.key), IDENTITY))
            value_taints = _embed(self._eval(node.value))
            self.env = local
            # a dict built by iterating an unordered source has
            # nondeterministic insertion order, but sorting the dict
            # itself is not a mechanical fix -- keep the taint embedded.
            return _embed(gen_taints) | key_taints | value_taints
        if isinstance(node, ast.JoinedStr):
            out = frozenset()
            for value in node.values:
                out |= self._eval(value)
            return _embed(out)
        if isinstance(node, ast.FormattedValue):
            taints = self._eval(node.value)
            if node.format_spec is not None:
                taints |= self._eval(node.format_spec)
            return taints
        if isinstance(node, (ast.BinOp,)):
            return self._eval(node.left) | self._eval(node.right)
        if isinstance(node, ast.BoolOp):
            out = frozenset()
            for value in node.values:
                out |= self._eval(value)
            return out
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, ast.Compare):
            out = self._eval(node.left)
            for comparator in node.comparators:
                out |= self._eval(comparator)
            # comparisons (incl. membership) collapse to a bool: order
            # can no longer reach the output, derived values still can.
            return _embed(_strip(out, UNORDERED))
        if isinstance(node, ast.Subscript):
            taints = self._eval(node.value)
            if isinstance(node.slice, ast.expr):
                taints |= _strip(self._eval(node.slice), IDENTITY)
            return _embed(taints)
        if isinstance(node, ast.Attribute):
            base = self._eval(node.value)
            if node.attr == "__dict__":
                stats_cls = self._stats_class_of(node.value)
                if stats_cls is not None:
                    return base | {
                        Taint(
                            STATS,
                            node.lineno,
                            node.col_offset,
                            f"{stats_cls}.__dict__",
                        )
                    }
            return _embed(base)
        if isinstance(node, ast.IfExp):
            return (
                _embed(self._eval(node.test))
                | self._eval(node.body)
                | self._eval(node.orelse)
            )
        if isinstance(node, ast.NamedExpr):
            taints = self._eval(node.value)
            self._bind(node.target, node.value, taints)
            return taints
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self._eval(node.value)
        if isinstance(node, ast.Yield):
            return self._eval(node.value) if node.value is not None else _EMPTY
        if isinstance(node, ast.Lambda):
            return _EMPTY  # its body is a separate (unanalysed) scope
        if isinstance(node, ast.Slice):
            out = frozenset()
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    out |= self._eval(part)
            return out
        return _EMPTY

    def _eval_generators(self, generators) -> frozenset[Taint]:
        """Bind comprehension targets; returns the iterables' taint."""
        out: frozenset[Taint] = frozenset()
        for gen in generators:
            iter_taints = self._eval(gen.iter)
            out |= iter_taints
            self._bind(gen.target, None, _embed(iter_taints))
            for cond in gen.ifs:
                self._eval(cond)
        return out

    def _eval_comp(self, node) -> frozenset[Taint]:
        local = dict(self.env)
        gen_taints = self._eval_generators(node.generators)
        element_taints = _embed(self._eval(node.elt))
        self.env = local
        # a list/generator over an unordered iterable inherits that
        # order nondeterminism *directly*: wrapping the whole
        # comprehension in sorted(...) is a faithful fix.
        return gen_taints | element_taints

    # -- calls: sources, sanitizers, sinks ---------------------------------

    def _eval_call(self, node: ast.Call) -> frozenset[Taint]:
        resolved = self.ctx.imports.resolve(node.func)
        arg_nodes = [*node.args, *[kw.value for kw in node.keywords]]
        arg_taints = frozenset()
        for arg in arg_nodes:
            arg_taints |= self._eval(arg)

        self._check_sinks(node, resolved, arg_nodes)

        if resolved in ORDER_NEUTRAL_CALLS:
            return _embed(_strip(arg_taints, UNORDERED))
        if resolved in ("set", "frozenset"):
            return _embed(_strip(arg_taints, UNORDERED)) | {
                Taint(
                    UNORDERED,
                    node.lineno,
                    node.col_offset,
                    f"{resolved}(...)",
                )
            }
        if resolved in WALL_CLOCK_CALLS:
            return arg_taints | {
                Taint(CLOCK, node.lineno, node.col_offset, f"{resolved}()")
            }
        if resolved in _IDENTITY_CALLS:
            return _embed(arg_taints) | {
                Taint(IDENTITY, node.lineno, node.col_offset, f"{resolved}()")
            }
        if resolved is not None and self._is_ambient_rng(resolved, node):
            return arg_taints | {
                Taint(RNG, node.lineno, node.col_offset, f"{resolved}()")
            }
        if resolved == "vars" and len(node.args) == 1:
            stats_cls = self._stats_class_of(node.args[0])
            if stats_cls is not None:
                return arg_taints | {
                    Taint(
                        STATS,
                        node.lineno,
                        node.col_offset,
                        f"vars({stats_cls})",
                    )
                }
        if resolved in ("dataclasses.asdict", "dataclasses.astuple") and node.args:
            stats_cls = self._stats_class_of(node.args[0])
            if stats_cls is not None:
                return arg_taints | {
                    Taint(
                        STATS,
                        node.lineno,
                        node.col_offset,
                        f"{resolved.rsplit('.', 1)[-1]}({stats_cls})",
                    )
                }
        if resolved in _ORDER_PRESERVING:
            return arg_taints
        if resolved in _DERIVING:
            return _embed(arg_taints)
        if resolved == "random.Random":
            return _EMPTY  # the instance itself; draws are typed via _bind

        if isinstance(node.func, ast.Attribute):
            return self._eval_method_call(node, arg_taints)

        # Unknown plain function: assume it may impose an order or sort
        # its keys (keeps the false-positive rate down), but a value
        # computed *from* a host read stays derived from it.
        return _embed(
            frozenset(t for t in arg_taints if t.kind in _HOST_KINDS)
        )

    def _eval_method_call(
        self, node: ast.Call, arg_taints: frozenset[Taint]
    ) -> frozenset[Taint]:
        func = node.func
        receiver_taints = self._eval(func.value)
        if func.attr == "as_dict":
            return _embed(_strip(receiver_taints, STATS))
        if func.attr in ("values", "keys") and not node.args and not node.keywords:
            return _embed(receiver_taints) | {
                Taint(
                    UNORDERED,
                    node.lineno,
                    node.col_offset,
                    f".{func.attr}()",
                )
            }
        if func.attr == "join":
            # order flows through join verbatim: "".join(sorted(x)) is
            # clean because sorted() already stripped the taint.
            return receiver_taints | arg_taints
        if isinstance(func.value, ast.Name):
            receiver_type = self.types.get(func.value.id)
            if receiver_type == "_unseeded_rng":
                return arg_taints | {
                    Taint(
                        RNG,
                        node.lineno,
                        node.col_offset,
                        f"{func.value.id}.{func.attr}() (unseeded RNG)",
                    )
                }
            if receiver_type == "_seeded_rng":
                return _embed(arg_taints)
        return receiver_taints | _embed(arg_taints)

    @staticmethod
    def _is_ambient_rng(resolved: str, node: ast.Call) -> bool:
        if resolved in _AMBIENT_RNG_CALLS or resolved.startswith("secrets."):
            return True
        if resolved in ("random.Random", "random.SystemRandom"):
            return False  # instance construction, handled via types
        return resolved.startswith("random.")

    def _stats_class_of(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            cls = self.types.get(node.id)
            if cls in _STATS_CLASSES:
                return cls
        if isinstance(node, ast.Call):
            resolved = self.ctx.imports.resolve(node.func)
            if resolved and resolved.rsplit(".", 1)[-1] in _STATS_CLASSES:
                return resolved.rsplit(".", 1)[-1]
        return None

    # -- sinks -------------------------------------------------------------

    def _sink_names(self, node: ast.Call, resolved: str | None) -> tuple[str | None, str | None]:
        """(emit_sink_name, digest_sink_name) this call represents."""
        emit = digest = None
        if resolved is not None:
            if resolved in EMIT_SINKS:
                emit = resolved
            elif resolved.startswith("hashlib."):
                emit = resolved
                digest = resolved
            elif any(
                resolved == suffix or resolved.endswith("." + suffix)
                for suffix in EMIT_SINK_SUFFIXES
            ):
                emit = resolved.rsplit(".", 1)[-1]
            elif resolved in _ARRAY_SINKS:
                digest = resolved
            elif resolved == "Calibration" or resolved.endswith(".Calibration"):
                digest = "Calibration(...)"
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "update"
            and isinstance(node.func.value, ast.Name)
            and self.types.get(node.func.value.id) == "_digest"
        ):
            emit = digest = f"{node.func.value.id}.update (digest)"
        return emit, digest

    def _seed_args(
        self, node: ast.Call, resolved: str | None
    ) -> list[tuple[str, ast.expr]]:
        """(sink name, argument) for each seed or name argument."""
        callee = resolved or "call"
        names = {"seed"}
        found: list[tuple[str, ast.expr]] = []
        for suffix, index, keyword in _SEED_ARGS:
            if callee == suffix or callee.endswith("." + suffix):
                names.add(keyword)
                if len(node.args) > index:
                    found.append((f"{callee}({keyword}=...)", node.args[index]))
        found.extend(
            (f"{callee}({kw.arg}=...)", kw.value)
            for kw in node.keywords
            if kw.arg in names
        )
        return found

    def _check_sinks(
        self, node: ast.Call, resolved: str | None, arg_nodes: list[ast.expr]
    ) -> None:
        for sink_name, arg in self._seed_args(node, resolved):
            for kind in _HOST_KINDS:
                for carrier, taint in self._carriers(arg, kind):
                    self._record(
                        CAT_DIGEST_NONDET, sink_name, node, carrier, taint, None
                    )
        emit, digest = self._sink_names(node, resolved)
        if emit is None and digest is None:
            return
        for arg in arg_nodes:
            if emit is not None:
                for carrier, taint in self._carriers(arg, UNORDERED):
                    self._record(
                        CAT_EMIT_UNORDERED, emit, node, carrier, taint,
                        self._sorted_suggestion(carrier, taint),
                    )
                for carrier, taint in self._carriers(arg, STATS):
                    self._record(
                        CAT_STATS_EXPORT, emit, node, carrier, taint,
                        self._as_dict_suggestion(carrier),
                    )
            if digest is not None:
                for kind in _HOST_KINDS:
                    for carrier, taint in self._carriers(arg, kind):
                        self._record(
                            CAT_DIGEST_NONDET, digest, node, carrier, taint, None
                        )

    def _carriers(
        self, node: ast.AST, kind: str
    ) -> list[tuple[ast.AST, Taint]]:
        """Minimal sub-expressions of ``node`` carrying ``kind``.

        Descends only while a child also carries the kind; among the
        minimal carriers, the ones whose taint is ``direct`` (the value
        *is* the tainted object) shadow indirect ones -- they are the
        root cause the fix should target.
        """
        if not _has(self.memo.get(id(node), _EMPTY), kind):
            return []
        found: list[tuple[ast.AST, Taint]] = []
        self._collect_carriers(node, kind, found)
        if any(taint.direct for _, taint in found):
            found = [(n, t) for n, t in found if t.direct]
        return found

    def _collect_carriers(
        self, node: ast.AST, kind: str, out: list[tuple[ast.AST, Taint]]
    ) -> None:
        own = [t for t in self.memo.get(id(node), _EMPTY) if t.kind == kind]
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)) and any(
            t.direct for t in own
        ):
            # a comprehension over an unordered iterable is itself the
            # sortable sequence; fix at the comprehension, not inside it.
            out.append((node, next(t for t in own if t.direct)))
            return
        tainted_children = [
            child
            for child in ast.iter_child_nodes(node)
            if _has(self.memo.get(id(child), _EMPTY), kind)
        ]
        if not tainted_children:
            taints = [
                t for t in self.memo.get(id(node), _EMPTY) if t.kind == kind
            ]
            direct = [t for t in taints if t.direct]
            out.append((node, (direct or taints)[0]))
            return
        for child in tainted_children:
            self._collect_carriers(child, kind, out)

    # -- suggestions -------------------------------------------------------

    def _segment(self, node: ast.AST) -> str | None:
        if getattr(node, "end_lineno", None) is None:
            return None
        return ast.get_source_segment(self.source, node)

    def _span(self, node: ast.AST) -> tuple[int, int, int, int] | None:
        if getattr(node, "end_lineno", None) is None:
            return None
        return (node.lineno, node.col_offset, node.end_lineno, node.end_col_offset)

    def _sorted_suggestion(
        self, carrier: ast.AST, taint: Taint
    ) -> Suggestion | None:
        segment = self._segment(carrier)
        span = self._span(carrier)
        if segment is None or span is None:
            return None
        wrappable = isinstance(
            carrier,
            (ast.Name, ast.Set, ast.SetComp, ast.ListComp, ast.GeneratorExp),
        ) or (
            isinstance(carrier, ast.Call)
            and (
                self.ctx.imports.resolve(carrier.func) in ("set", "frozenset")
                or (
                    isinstance(carrier.func, ast.Attribute)
                    and carrier.func.attr in ("values", "keys")
                )
            )
        )
        if isinstance(carrier, ast.GeneratorExp):
            segment = f"({segment})" if not segment.startswith("(") else segment
        safety = SAFETY_SAFE if (taint.direct and wrappable) else SAFETY_UNSAFE
        return Suggestion(
            line=span[0],
            col=span[1],
            end_line=span[2],
            end_col=span[3],
            replacement=f"sorted({segment})",
            safety=safety,
            description="wrap the unordered value in sorted(...) at the emit site",
        )

    def _as_dict_suggestion(self, carrier: ast.AST) -> Suggestion | None:
        span = self._span(carrier)
        if span is None:
            return None
        target: ast.expr | None = None
        if isinstance(carrier, ast.Call) and len(carrier.args) == 1:
            target = carrier.args[0]
        elif isinstance(carrier, ast.Attribute) and carrier.attr == "__dict__":
            target = carrier.value
        if target is None or not isinstance(target, (ast.Name, ast.Attribute)):
            return None
        segment = self._segment(target)
        if segment is None:
            return None
        return Suggestion(
            line=span[0],
            col=span[1],
            end_line=span[2],
            end_col=span[3],
            replacement=f"{segment}.as_dict()",
            safety=SAFETY_SAFE,
            description="export through the sorted-key .as_dict() helper",
        )

    def _record(
        self,
        category: str,
        sink_name: str,
        sink_node: ast.Call,
        carrier: ast.AST,
        taint: Taint,
        suggestion: Suggestion | None,
    ) -> None:
        key = (
            category,
            sink_node.lineno,
            sink_node.col_offset,
            getattr(carrier, "lineno", 0),
            getattr(carrier, "col_offset", 0),
            taint.kind,
        )
        if key in self._flow_keys:
            return  # loop bodies run twice; record each flow once
        self._flow_keys.add(key)
        self.flows.append(
            Flow(
                category=category,
                sink_name=sink_name,
                sink_line=sink_node.lineno,
                sink_col=sink_node.col_offset,
                carrier=carrier,
                taint=taint,
                suggestion=suggestion,
            )
        )


def _iter_scopes(tree: ast.Module):
    """(kind, node-or-body) for every scope: module, classes, functions."""
    yield "body", tree.body
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield "function", node
        elif isinstance(node, ast.ClassDef):
            yield "body", node.body


def compute_file_flows(tree: ast.Module, ctx) -> list[Flow]:
    source = "\n".join(ctx.source_lines)
    flows: list[Flow] = []
    for kind, scope in _iter_scopes(tree):
        analyzer = _ScopeAnalyzer(ctx, source)
        if kind == "function":
            analyzer.run_function(scope)
        else:
            analyzer.run_statements(scope)
        flows.extend(analyzer.flows)
    return flows


def file_flows(tree: ast.Module, ctx) -> list[Flow]:
    """Flows for ``tree``, computed once per file and cached on ``ctx``."""
    cached = ctx.scratch.get("dataflow")
    if cached is None or ctx.scratch.get("dataflow_tree_id") != id(tree):
        cached = compute_file_flows(tree, ctx)
        ctx.scratch["dataflow"] = cached
        ctx.scratch["dataflow_tree_id"] = id(tree)
    return cached
