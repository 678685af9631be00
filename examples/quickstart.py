#!/usr/bin/env python3
"""Quickstart: build a synthetic Web-PKI study and reproduce the paper's
headline findings in under a minute.

Run:  python examples/quickstart.py [scale]

The study is fully deterministic; `scale` (default 0.002) controls the
corpus size relative to the paper's 5.07 M-certificate Leaf Set.
"""

import sys

from repro import MeasurementStudy


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.002
    print(f"Building the synthetic ecosystem at scale={scale} ...")
    study = MeasurementStudy(scale=scale)
    eco = study.ecosystem
    end = study.calibration.measurement_end
    print(
        f"  {len(eco.leaves):,} leaf certificates, "
        f"{len(eco.intermediates)} intermediates, {len(eco.crls)} CRLs\n"
    )

    # -- Finding 1 (§4): a surprisingly large fraction is revoked --------
    # The Leaf Set is columnar: each mask marks one row per certificate.
    leaves = eco.leaves
    revoked = leaves.revoked_mask(end)
    fresh, alive = leaves.fresh_mask(end), leaves.alive_mask(end)
    fresh_revoked = (fresh & revoked).sum() / fresh.sum()
    alive_revoked = (alive & revoked).sum() / alive.sum()
    print("Finding 1 -- website administrators (paper §4):")
    print(f"  fresh certificates revoked:  {fresh_revoked:.1%}   (paper: >8%)")
    print(f"  alive certificates revoked:  {alive_revoked:.2%}   (paper: ~0.6%)")

    # -- Finding 2 (§5): CRLs are expensive for clients ------------------
    from repro.core.stats import weighted_cdf

    sizes = study.crl_sizes()
    crls = {c.url: c for c in eco.crls}
    weighted = weighted_cdf((sizes[u], crls[u].assigned_cert_count) for u in sizes)
    print("\nFinding 2 -- CAs (paper §5):")
    print(
        f"  median certificate's CRL: {weighted.median / 1024:.0f} KB "
        f"(paper: 51 KB); largest: {max(sizes.values()) / 2**20:.0f} MB "
        f"(paper: 76 MB)"
    )

    # -- Finding 3 (§4.3): OCSP Stapling is rare -------------------------
    stapling = study.stapling_summary
    print("\nFinding 3 -- OCSP Stapling (paper §4.3):")
    print(
        f"  servers supporting stapling: {stapling.server_fraction:.1%} "
        f"(paper: 2.6%)"
    )

    # -- Finding 4 (§7): CRLSets barely help -----------------------------
    coverage = study.crlset_coverage()
    print("\nFinding 4 -- CRLSets (paper §7):")
    print(
        f"  revocations covered by the CRLSet: "
        f"{coverage.coverage_fraction:.2%} (paper: 0.35%)"
    )

    # -- And the full Figure 2, regenerated ------------------------------
    from repro import run_experiment

    print()
    print(run_experiment("fig2", study).render())


if __name__ == "__main__":
    main()
