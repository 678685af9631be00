"""Table 2: browser test results.

Computes each cell of the paper's Table 2 by running the browser models
against the generated test suite and classifying the per-case outcomes
into the paper's marks:

* ``yes``  (paper: check mark) -- passes in all cases,
* ``no``   (paper: cross) -- fails in all cases (or a non-EV/OS mixture),
* ``ev``   -- passes exactly for EV certificates,
* ``l/w``  -- passes only on Linux and Windows,
* ``a``    -- pops an alert instead of failing closed,
* ``i``    -- requests OCSP staples but ignores the response,
* ``-``    -- not applicable / never exercised.

``PAPER_TABLE2`` records the marks printed in the paper for comparison;
a paper ``-`` (untestable in their lab, e.g. Chrome/Linux with our root
installed) is treated as a wildcard when diffing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.browsers.policy import BrowserModel
from repro.browsers.registry import table2_columns
from repro.browsers.testsuite import (
    BrowserTestHarness,
    TestCase,
    TestOutcome,
    generate_test_suite,
)

__all__ = ["Mark", "PAPER_TABLE2", "ROWS", "compute_table2", "render_table2"]


class Mark(enum.Enum):
    YES = "yes"
    NO = "no"
    EV = "ev"
    LW = "l/w"
    ALERT = "a"
    IGNORES = "i"
    DASH = "-"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class RowSpec:
    key: str
    group: str
    label: str

    def selects(self, case: TestCase) -> bool:
        if self.key.startswith(("crl/", "ocsp/")):
            protocol, position, condition = self.key.split("/")
            if case.family not in ("revoked", "unavailable"):
                return False
            if case.family == "revoked":
                if condition != "revoked":
                    return False
                if protocol == "crl" and case.protocols != frozenset({"crl"}):
                    return False
                if protocol == "ocsp" and case.protocols != frozenset({"ocsp"}):
                    return False
            else:
                if condition != "unavailable":
                    return False
                if case.protocols != frozenset({protocol}):
                    return False
                if case.failure_mode == "unknown":
                    return False  # counted in its own row
            return case.target_position == position
        if self.key == "reject_unknown":
            return case.family == "unavailable" and case.failure_mode == "unknown"
        if self.key == "try_crl_on_failure":
            return case.family == "fallback"
        if self.key in ("request_staple", "respect_revoked_staple"):
            return case.family == "stapling"
        raise AssertionError(f"unknown row key {self.key}")


ROWS: tuple[RowSpec, ...] = (
    RowSpec("crl/int1/revoked", "CRL", "Int. 1 Revoked"),
    RowSpec("crl/int1/unavailable", "CRL", "Int. 1 Unavailable"),
    RowSpec("crl/int2plus/revoked", "CRL", "Int. 2+ Revoked"),
    RowSpec("crl/int2plus/unavailable", "CRL", "Int. 2+ Unavailable"),
    RowSpec("crl/leaf/revoked", "CRL", "Leaf Revoked"),
    RowSpec("crl/leaf/unavailable", "CRL", "Leaf Unavailable"),
    RowSpec("ocsp/int1/revoked", "OCSP", "Int. 1 Revoked"),
    RowSpec("ocsp/int1/unavailable", "OCSP", "Int. 1 Unavailable"),
    RowSpec("ocsp/int2plus/revoked", "OCSP", "Int. 2+ Revoked"),
    RowSpec("ocsp/int2plus/unavailable", "OCSP", "Int. 2+ Unavailable"),
    RowSpec("ocsp/leaf/revoked", "OCSP", "Leaf Revoked"),
    RowSpec("ocsp/leaf/unavailable", "OCSP", "Leaf Unavailable"),
    RowSpec("reject_unknown", "OCSP", "Reject unknown status"),
    RowSpec("try_crl_on_failure", "OCSP", "Try CRL on failure"),
    RowSpec("request_staple", "Stapling", "Request OCSP staple"),
    RowSpec("respect_revoked_staple", "Stapling", "Respect revoked staple"),
)

#: The marks printed in the paper's Table 2, column order as in
#: :func:`repro.browsers.registry.table2_columns`.
PAPER_TABLE2: dict[str, list[str]] = {
    "crl/int1/revoked": ["ev", "yes", "ev", "no", "yes", "yes", "yes", "yes", "yes", "yes", "no", "no", "no", "no"],
    "crl/int1/unavailable": ["ev", "yes", "-", "no", "no", "yes", "yes", "yes", "yes", "yes", "no", "no", "no", "no"],
    "crl/int2plus/revoked": ["ev", "ev", "ev", "no", "yes", "yes", "yes", "yes", "yes", "yes", "no", "no", "no", "no"],
    "crl/int2plus/unavailable": ["no", "no", "-", "no", "no", "no", "no", "no", "no", "no", "no", "no", "no", "no"],
    "crl/leaf/revoked": ["ev", "ev", "ev", "no", "yes", "yes", "yes", "yes", "yes", "yes", "no", "no", "no", "no"],
    "crl/leaf/unavailable": ["no", "no", "-", "no", "no", "no", "no", "no", "a", "yes", "no", "no", "no", "no"],
    "ocsp/int1/revoked": ["ev", "ev", "ev", "ev", "no", "yes", "yes", "yes", "yes", "yes", "no", "no", "no", "no"],
    "ocsp/int1/unavailable": ["no", "no", "-", "no", "no", "l/w", "no", "yes", "yes", "yes", "no", "no", "no", "no"],
    "ocsp/int2plus/revoked": ["ev", "ev", "ev", "ev", "no", "yes", "yes", "yes", "yes", "yes", "no", "no", "no", "no"],
    "ocsp/int2plus/unavailable": ["no", "no", "-", "no", "no", "no", "no", "no", "no", "no", "no", "no", "no", "no"],
    "ocsp/leaf/revoked": ["ev", "ev", "ev", "yes", "yes", "yes", "yes", "yes", "yes", "yes", "no", "no", "no", "no"],
    "ocsp/leaf/unavailable": ["no", "no", "-", "no", "no", "no", "no", "no", "a", "yes", "no", "no", "no", "no"],
    "reject_unknown": ["no", "no", "-", "yes", "yes", "no", "no", "no", "no", "no", "-", "-", "-", "-"],
    "try_crl_on_failure": ["ev", "ev", "-", "no", "no", "l/w", "yes", "yes", "yes", "yes", "-", "-", "-", "-"],
    "request_staple": ["yes", "yes", "yes", "yes", "yes", "yes", "no", "yes", "yes", "yes", "no", "i", "i", "no"],
    "respect_revoked_staple": ["no", "yes", "-", "yes", "yes", "l/w", "-", "yes", "yes", "yes", "-", "-", "-", "-"],
}


def _classify(
    outcomes: list[tuple[BrowserModel, TestOutcome]], row: RowSpec
) -> Mark:
    """Turn per-case pass/fail/warn results into a Table 2 mark."""
    if row.key == "request_staple":
        models = {id(m): m for m, _ in outcomes}.values()
        if all(m.requests_staple() and m.uses_staple() for m in models):
            return Mark.YES
        if all(m.requests_staple() and not m.uses_staple() for m in models):
            return Mark.IGNORES
        if all(not m.requests_staple() for m in models):
            return Mark.NO
        return Mark.NO

    if row.key == "respect_revoked_staple":
        models = list({id(m): m for m, _ in outcomes}.values())
        if all(not (m.requests_staple() and m.uses_staple()) for m in models):
            return Mark.DASH
        relevant = [
            (m, o)
            for m, o in outcomes
            if o.case.staple_status == "revoked" and o.case.responder_firewalled
        ]
        return _pass_fail_mark(relevant)

    if row.key == "reject_unknown":
        exercised = [(m, o) for m, o in outcomes if o.checked_unknown]
        if not exercised:
            return Mark.DASH
        return _pass_fail_mark(exercised)

    if row.key == "try_crl_on_failure":
        if all(not o.performed_any_check for _, o in outcomes):
            return Mark.DASH
        return _pass_fail_mark(outcomes)

    return _pass_fail_mark(outcomes)


def _pass_fail_mark(outcomes: list[tuple[BrowserModel, TestOutcome]]) -> Mark:
    if not outcomes:
        return Mark.DASH
    passes = [(m, o, o.rejected) for m, o in outcomes]
    if all(p for _, _, p in passes):
        return Mark.YES
    if all(not p for _, _, p in passes):
        if all(o.warned for _, o, p in passes if not p):
            return Mark.ALERT
        return Mark.NO
    # Mixed pass/warn with no hard failures -> alert.
    if all(p or o.warned for _, o, p in passes):
        return Mark.ALERT
    # Passes exactly the EV subset?
    if all(p == o.case.ev for _, o, p in passes):
        return Mark.EV
    # Passes exactly on Linux/Windows?
    if all(p == (m.os in ("linux", "windows")) for m, _, p in passes):
        return Mark.LW
    return Mark.NO


def compute_table2(
    harness: BrowserTestHarness | None = None,
    columns: list[tuple[str, list[BrowserModel]]] | None = None,
    cases: list[TestCase] | None = None,
) -> dict[str, list[Mark]]:
    """Run the suite for every column and produce the mark matrix."""
    harness = harness or BrowserTestHarness()
    columns = columns or table2_columns()
    cases = cases if cases is not None else generate_test_suite()

    # Which rows a case feeds depends only on the case: decide it once.
    rows_of = {
        case: tuple(row for row in ROWS if row.selects(case)) for case in cases
    }
    matrix: dict[str, list[Mark]] = {row.key: [] for row in ROWS}
    for _label, models in columns:
        cells: dict[str, list[tuple[BrowserModel, TestOutcome]]] = {
            row.key: [] for row in ROWS
        }
        for model in models:
            for outcome in harness.run_suite(model, cases):
                for row in rows_of[outcome.case]:
                    cells[row.key].append((model, outcome))
        for row in ROWS:
            matrix[row.key].append(_classify(cells[row.key], row))
    return matrix


def render_table2(matrix: dict[str, list[Mark]]) -> str:
    columns = [label for label, _ in table2_columns()]
    width = max(len(label) for label in columns)
    header = " " * 34 + "  ".join(label[:11].rjust(11) for label in columns)
    lines = [header]
    group = ""
    for row in ROWS:
        if row.group != group:
            group = row.group
            lines.append(f"-- {group} " + "-" * (len(header) - len(group) - 4))
        marks = matrix[row.key]
        cells = "  ".join(str(mark).rjust(11) for mark in marks)
        lines.append(f"{row.label:<34}{cells}")
    return "\n".join(lines)


def diff_against_paper(matrix: dict[str, list[Mark]]) -> list[str]:
    """Cells where our computed mark differs from the paper's (paper '-'
    is a wildcard)."""
    mismatches = []
    labels = [label for label, _ in table2_columns()]
    for row in ROWS:
        expected = PAPER_TABLE2[row.key]
        actual = matrix[row.key]
        for column, (want, got) in enumerate(zip(expected, actual)):
            if want == "-":
                continue
            if want != got.value:
                mismatches.append(
                    f"{row.group}/{row.label} @ {labels[column]}: "
                    f"paper={want} ours={got.value}"
                )
    return mismatches
