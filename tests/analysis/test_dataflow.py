"""Unit suite for the intraprocedural taint substrate (dataflow.py).

Each test lints a small snippet through the real engine and asserts on
the RPR003/RPR013/RPR014 findings the dataflow rules derive, including
the safety class of the attached suggestion -- the suite is the
contract for what propagates, what sanitises, and what may be autofixed.
"""

from __future__ import annotations

import textwrap

from repro.analysis.engine import analyze_source
from repro.analysis.findings import SAFETY_SAFE, SAFETY_UNSAFE
from repro.analysis.rules import default_rules


def lint(source: str, rule: str | None = None):
    findings = analyze_source(
        textwrap.dedent(source), "snippet.py", default_rules()
    )
    if rule is None:
        return findings
    return [f for f in findings if f.rule == rule]


# -- RPR003: unordered values reaching emit sinks ------------------------


def test_set_bound_to_name_and_emitted_later_is_flagged():
    # The regression that motivated the dataflow rewrite: the syntactic
    # rule only saw unordered constructors inside the sink call itself.
    findings = lint(
        """
        import json

        def emit(names):
            uniq = set(names)
            return json.dumps(list(uniq))
        """,
        "RPR003",
    )
    assert len(findings) == 1
    (finding,) = findings
    assert "constructed at line 5" in finding.message
    assert finding.suggestion is not None
    assert finding.suggestion.safety == SAFETY_SAFE
    assert finding.suggestion.replacement == "sorted(uniq)"


def test_taint_survives_tuple_unpacking():
    findings = lint(
        """
        import json

        def emit(x, y):
            a, b = set(x), sorted(y)
            return json.dumps([list(a), b])
        """,
        "RPR003",
    )
    assert len(findings) == 1
    assert findings[0].suggestion.replacement == "sorted(a)"


def test_taint_survives_augmented_assignment():
    findings = lint(
        """
        import json

        def emit(x):
            acc = []
            acc += list(set(x))
            return json.dumps(acc)
        """,
        "RPR003",
    )
    assert len(findings) == 1


def test_loop_carried_mutation_taints_the_accumulator():
    findings = lint(
        """
        import json

        def emit(items):
            acc = []
            for value in set(items):
                acc.append(value)
            return json.dumps(acc)
        """,
        "RPR003",
    )
    assert len(findings) == 1
    # The taint is embedded in acc's elements, so sorting the list at
    # the sink is not provably equivalent: review-only suggestion.
    assert findings[0].suggestion.safety == SAFETY_UNSAFE


def test_fstring_embedding_keeps_the_inner_carrier():
    findings = lint(
        """
        import json

        def emit(x):
            return json.dumps(f"items: {set(x)}")
        """,
        "RPR003",
    )
    assert len(findings) == 1
    assert findings[0].suggestion.replacement == "sorted(set(x))"
    assert findings[0].suggestion.safety == SAFETY_SAFE


def test_comprehension_over_tainted_iterable_is_its_own_carrier():
    findings = lint(
        """
        import json

        def emit(x):
            return json.dumps([v for v in set(x)])
        """,
        "RPR003",
    )
    assert len(findings) == 1
    assert findings[0].suggestion.replacement == "sorted([v for v in set(x)])"
    assert findings[0].suggestion.safety == SAFETY_SAFE


def test_extend_with_tainted_elements_taints_the_target():
    findings = lint(
        """
        import json

        def emit(items):
            seen = []
            seen.extend(set(items))
            return json.dumps(seen)
        """,
        "RPR003",
    )
    assert len(findings) == 1


def test_sorted_sanitises_through_a_variable():
    assert not lint(
        """
        import json

        def emit(names):
            ordered = sorted(set(names))
            return json.dumps(ordered)
        """,
        "RPR003",
    )


def test_membership_test_is_order_neutral():
    assert not lint(
        """
        import json

        def emit(x, key):
            return json.dumps(key in set(x))
        """,
        "RPR003",
    )


def test_join_of_sorted_is_clean():
    assert not lint(
        """
        import json

        def emit(tokens):
            return json.dumps("".join(sorted(set(tokens))))
        """,
        "RPR003",
    )


def test_len_of_set_inside_fstring_is_clean():
    assert not lint(
        """
        import json

        def emit(items):
            return json.dumps(f"saw {len({i.kind for i in items})} kinds")
        """,
        "RPR003",
    )


def test_unknown_call_boundary_sanitises_order():
    # An opaque helper may impose any order; flagging its result would
    # make the rule unusable, so order taint stops at the call.
    assert not lint(
        """
        import json

        def emit(x):
            return json.dumps(helper(set(x)))
        """,
        "RPR003",
    )


def test_taint_does_not_leak_across_functions():
    assert not lint(
        """
        import json

        def build(x):
            return set(x)

        def emit(s):
            return json.dumps(list(s))
        """,
        "RPR003",
    )


def test_dict_views_are_unordered_sources():
    findings = lint(
        """
        import json

        def emit(counts):
            vals = counts.values()
            return json.dumps(list(vals))
        """,
        "RPR003",
    )
    assert len(findings) == 1


# -- RPR013: nondeterministic digest inputs ------------------------------


def test_clock_value_flowing_into_digest_update():
    findings = lint(
        """
        import hashlib
        import time

        def fingerprint(payload):
            stamp = time.time()
            digest = hashlib.sha256()
            digest.update(payload)
            digest.update(str(stamp).encode())
            return digest.hexdigest()
        """,
        "RPR013",
    )
    assert len(findings) == 1
    assert "wall-clock" in findings[0].message


def test_ambient_rng_value_flowing_into_hashlib_call():
    findings = lint(
        """
        import hashlib
        import random

        def fingerprint(payload):
            salt = random.random()
            return hashlib.sha256(f"{payload}{salt}".encode()).hexdigest()
        """,
        "RPR013",
    )
    assert len(findings) == 1
    assert "ambient-RNG" in findings[0].message


def test_seeded_rng_values_are_replayable():
    assert not lint(
        """
        import hashlib
        import random

        def fingerprint(payload, seed):
            rng = random.Random(seed)
            salt = rng.getrandbits(64)
            return hashlib.sha256(f"{payload}{salt}".encode()).hexdigest()
        """,
        "RPR013",
    )


def test_caller_supplied_timestamp_is_clean():
    assert not lint(
        """
        import hashlib

        def fingerprint(payload, stamp):
            return hashlib.sha256(f"{payload}{stamp}".encode()).hexdigest()
        """,
        "RPR013",
    )


def test_object_identity_in_a_generated_name_is_caught():
    # The Table 2 harness once named each test PKI after a memory
    # address, so certificate bytes changed from process to process.
    findings = lint(
        """
        from repro.browsers.certgen import TestPki

        def build_pki(case, browser):
            return TestPki(
                test_id=f"{case.test_id}-{id(browser) % 10_000}",
                n_intermediates=1,
                protocols={"crl"},
                ev=False,
            )
        """,
        "RPR013",
    )
    assert len(findings) == 1
    (finding,) = findings
    assert finding.message.startswith("object-identity value from id()")
    assert "TestPki(test_id=...)" in finding.message
    assert finding.suggestion is None


def test_identity_through_a_variable_into_a_positional_key_seed():
    findings = lint(
        """
        from repro.pki.keys import KeyPair

        def keys_for(obj):
            label = f"obj/{hash(obj)}"
            return KeyPair.generate(label)
        """,
        "RPR013",
    )
    assert len(findings) == 1
    assert "hash()" in findings[0].message
    assert "KeyPair.generate(seed=...)" in findings[0].message


def test_host_reads_into_any_seed_keyword():
    findings = lint(
        """
        import random
        import time

        def rngs(name):
            return [
                random.Random(seed=hash(name)),
                random.Random(seed=int(time.time())),
            ]
        """,
        "RPR013",
    )
    assert sorted(f.message.split(" value")[0] for f in findings) == [
        "object-identity",
        "wall-clock",
    ]


def test_identity_as_a_lookup_key_is_clean():
    # id() that only selects an object (dict key, subscript) never
    # reaches the value that is found.
    assert not lint(
        """
        from repro.browsers.certgen import TestPki
        from repro.pki.keys import KeyPair

        def dedup(outcomes, names):
            models = {id(m): m for m, _ in outcomes}.values()
            keys = [KeyPair.generate(f"model/{m.label}") for m in models]
            return keys, TestPki(names[id(keys)], 1, {"crl"}, ev=False)
        """,
        "RPR013",
    )


def test_stable_names_and_seeds_are_clean():
    assert not lint(
        """
        import random
        from repro.browsers.certgen import TestPki

        def build(case, seed):
            rng = random.Random(seed=f"suite/{case.test_id}")
            return rng, TestPki(case.test_id, 1, {"crl"}, ev=False)
        """,
        "RPR013",
    )


# -- RPR014: stats exported without the fixed-key helper -----------------


def test_vars_on_stats_object_flowing_to_json():
    findings = lint(
        """
        import json
        from repro.net.fetcher import FetchStats

        def export(stats: FetchStats):
            return json.dumps(vars(stats), sort_keys=True)
        """,
        "RPR014",
    )
    assert len(findings) == 1
    assert findings[0].suggestion is not None
    assert findings[0].suggestion.safety == SAFETY_SAFE
    assert findings[0].suggestion.replacement == "stats.as_dict()"


def test_asdict_through_a_variable_is_still_caught():
    findings = lint(
        """
        import dataclasses
        import json
        from repro.exec.supervisor import FailureRecord

        def export(record: FailureRecord):
            payload = dataclasses.asdict(record)
            return json.dumps(payload)
        """,
        "RPR014",
    )
    assert len(findings) == 1


def test_dunder_dict_access_is_caught():
    findings = lint(
        """
        import json
        from repro.net.fetcher import FetchStats

        def export(stats: FetchStats):
            return json.dumps(stats.__dict__)
        """,
        "RPR014",
    )
    assert len(findings) == 1
    assert findings[0].suggestion.replacement == "stats.as_dict()"


def test_as_dict_helper_is_the_sanctioned_path():
    assert not lint(
        """
        import json
        from repro.net.fetcher import FetchStats

        def export(stats: FetchStats):
            return json.dumps(stats.as_dict(), sort_keys=True)
        """,
        "RPR014",
    )


def test_vars_on_unknown_type_is_not_flagged():
    assert not lint(
        """
        import json

        def export(obj):
            return json.dumps(vars(obj))
        """,
        "RPR014",
    )


# -- cross-cutting -------------------------------------------------------


def test_noqa_suppresses_dataflow_findings():
    assert not lint(
        """
        import json

        def emit(names):
            uniq = set(names)
            return json.dumps(list(uniq))  # repro: noqa RPR003
        """,
        "RPR003",
    )


def test_flows_are_deduplicated_per_sink_and_carrier():
    # Two unordered taints reaching one sink through one carrier yield
    # one finding, not one per taint.
    findings = lint(
        """
        import json

        def emit(names, counts):
            payload = {"u": list(set(names)), "v": list(counts.values())}
            return json.dumps(payload)
        """,
        "RPR003",
    )
    assert len(findings) == 1
