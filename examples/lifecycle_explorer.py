#!/usr/bin/env python3
"""Lifecycle explorer: the paper's Figure 1, over real corpus data.

Classifies every Leaf Set certificate into Figure 1's shapes (typical,
revoked-then-retired, revoked-but-still-advertised, expired-but-still-
advertised, and the fully atypical revoked+expired+alive case), then
draws an actual example of each shape as an ASCII timeline.

Run:  python examples/lifecycle_explorer.py
"""

from repro import MeasurementStudy
from repro.core.lifecycle import (
    LifecycleShape,
    classify,
    lifecycle_census,
    render_lifecycle,
)
from repro.core.report import format_table


def main() -> None:
    study = MeasurementStudy(scale=0.002)
    eco = study.ecosystem
    end = study.calibration.measurement_end

    census = lifecycle_census(eco, end)
    total = sum(census.values())
    print(f"Figure 1 shapes across {total:,} certificates on {end}:\n")
    print(
        format_table(
            ["shape", "certificates", "fraction"],
            [
                (shape.value, count, f"{count / total:.2%}")
                for shape, count in census.most_common()
            ],
        )
    )
    print(
        "\nThe 'revoked but still advertised' population is the paper's §4.1\n"
        "surprise: the administrator went to the trouble of revoking, then\n"
        "kept serving the certificate (e.g. vpn.trade.gov).  The fully\n"
        "atypical shape matches gamespace.adobe.com: revoked AND expired,\n"
        "yet still being served.\n"
    )

    # Draw one real example of each interesting shape.
    wanted = [
        LifecycleShape.TYPICAL,
        LifecycleShape.REVOKED_RETIRED,
        LifecycleShape.REVOKED_STILL_ADVERTISED,
        LifecycleShape.ATYPICAL,
    ]
    leaves = eco.leaf_records()
    for shape in wanted:
        example = next(
            (leaf for leaf in leaves if classify(leaf, end) is shape), None
        )
        if example is None:
            continue
        print(f"--- {shape.value} (cert {example.cert_id}, {example.brand}) ---")
        print(render_lifecycle(example))
        print()


if __name__ == "__main__":
    main()
