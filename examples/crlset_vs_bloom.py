#!/usr/bin/env python3
"""CRLSet vs Bloom filter vs Golomb set: the paper's §7.4 proposal, live.

Builds Google's CRLSet over the synthetic ecosystem, then builds the
paper's proposed Bloom-filter replacement (and Langley's GCS refinement)
over the *entire* observed revocation population, and compares coverage,
size, and what each would have done for users.

Run:  python examples/crlset_vs_bloom.py
"""

from repro import MeasurementStudy
from repro.core.report import format_bytes, format_table
from repro.crlset.bloom import BloomFilter, capacity_at_fp_rate
from repro.crlset.format import serial_to_bytes
from repro.crlset.gcs import GolombCompressedSet


def main() -> None:
    study = MeasurementStudy(scale=0.002)
    eco = study.ecosystem
    end = study.calibration.measurement_end

    # 1. The production CRLSet.
    history = study.crlset_history
    snapshot = history.final_snapshot
    total_revocations = eco.total_crl_entries(end)
    print("Google-style CRLSet over the synthetic corpus:")
    print(f"  entries:  {snapshot.entry_count:,}")
    print(f"  size:     {format_bytes(snapshot.size_bytes)} (cap: 250 KB)")
    print(
        f"  coverage: {snapshot.entry_count / total_revocations:.2%} of "
        f"{total_revocations:,} CRL entries (paper: 0.35%)"
    )

    # 2. A Bloom filter over every revoked, scan-observed certificate.
    parent_by_int = {
        rec.intermediate_id: rec.spki_hash for rec in eco.intermediates
    }

    def key(leaf) -> bytes:
        return parent_by_int[leaf.intermediate_id] + serial_to_bytes(
            leaf.serial_number
        )

    # Masks over the columnar Leaf Set pick the rows; only those decode.
    fresh = eco.leaves.fresh_mask(end)
    revoked = eco.leaf_records(fresh & eco.leaves.revoked_mask(end))
    never_revoked = eco.leaf_records(fresh & ~eco.leaves.revoked_mask())
    revoked_keys = [key(leaf) for leaf in revoked]
    bloom = BloomFilter.for_items(len(revoked_keys), 256 * 1024 * 8)
    bloom.update(revoked_keys)
    gcs = GolombCompressedSet(revoked_keys, fp_rate=0.01)

    fresh_keys = [key(leaf) for leaf in never_revoked]
    bloom_fp = bloom.measured_fp_rate(fresh_keys)
    gcs_fp = sum(1 for key in fresh_keys if key in gcs) / len(fresh_keys)

    crlset_caught = sum(
        1
        for leaf in revoked
        if snapshot.is_revoked(
            parent_by_int[leaf.intermediate_id], leaf.serial_number
        )
    )
    print()
    print(
        format_table(
            ["structure", "size", "revoked certs caught", "false-positive rate"],
            [
                (
                    "CRLSet (production rules)",
                    format_bytes(snapshot.size_bytes),
                    f"{crlset_caught}/{len(revoked_keys)}",
                    "0 (exact)",
                ),
                (
                    "Bloom filter, 256 KB",
                    format_bytes(bloom.size_bytes),
                    f"{len(revoked_keys)}/{len(revoked_keys)} (no false negatives)",
                    f"{bloom_fp:.3%} (triggers a CRL re-check)",
                ),
                (
                    "Golomb set @1% FP",
                    format_bytes(gcs.size_bytes),
                    f"{len(revoked_keys)}/{len(revoked_keys)}",
                    f"{gcs_fp:.3%}",
                ),
            ],
            title="what would have shipped to every Chrome user",
        )
    )

    # 3. The paper's scaling argument.
    print("\nScaling to the paper's full corpus (analytic, §7.4):")
    for label, m_bits in (("256 KB", 256 * 1024 * 8), ("2 MB", 2 * 1024 * 1024 * 8)):
        capacity = capacity_at_fp_rate(m_bits, 0.01)
        print(
            f"  a {label} Bloom filter at 1% FP holds {capacity:,} revocations "
            f"({capacity / 11_461_935:.0%} of the paper's 11.46 M entries)"
        )
    print(
        "\nConclusion (paper §7.4): within the same 250 KB budget, a Bloom\n"
        "filter covers an order of magnitude more revocations than the\n"
        "CRLSet, with no false negatives and a tunable re-check rate."
    )


if __name__ == "__main__":
    main()
