"""Timeline series and chain-set construction tests."""

from __future__ import annotations

import datetime

import pytest

from repro.core.chain import build_chain_sets
from repro.core.timelines import revocation_series
from repro.pki.keys import KeyPair
from repro.scan.records import LeafRecord
from tests.scan.reference_leaves import encode_leaves

D = datetime.date


def leaf(cert_id, nb, na, birth, death, revoked=None, ev=False) -> LeafRecord:
    return LeafRecord(
        cert_id=cert_id,
        brand="X",
        intermediate_id=0,
        serial_number=cert_id,
        not_before=nb,
        not_after=na,
        birth=birth,
        death=death,
        is_ev=ev,
        crl_url=None,
        ocsp_url=None,
        revoked_at=revoked,
    )


class TestRevocationSeries:
    def test_handcrafted_fractions(self):
        leaves = [
            leaf(0, D(2014, 1, 1), D(2015, 1, 1), D(2014, 1, 1), D(2014, 12, 1)),
            leaf(
                1, D(2014, 1, 1), D(2015, 1, 1), D(2014, 1, 1), D(2014, 12, 1),
                revoked=D(2014, 6, 1),
            ),
        ]
        series = revocation_series(encode_leaves(leaves), D(2014, 5, 1), D(2014, 7, 1), step_days=31)
        # Before the revocation: 0/2; after: 1/2.
        assert series.fresh_revoked_all[0] == pytest.approx(0.0)
        assert series.fresh_revoked_all[-1] == pytest.approx(0.5)

    def test_alive_differs_from_fresh(self):
        # Revoked cert taken down immediately: still fresh, not alive.
        leaves = [
            leaf(
                0, D(2014, 1, 1), D(2015, 1, 1), D(2014, 1, 1), D(2014, 6, 1),
                revoked=D(2014, 6, 1),
            ),
            leaf(1, D(2014, 1, 1), D(2015, 1, 1), D(2014, 1, 1), D(2014, 12, 30)),
        ]
        series = revocation_series(encode_leaves(leaves), D(2014, 8, 1), D(2014, 8, 1))
        assert series.fresh_revoked_all[0] == pytest.approx(0.5)
        assert series.alive_revoked_all[0] == pytest.approx(0.0)

    def test_ev_series_subset(self):
        leaves = [
            leaf(
                0, D(2014, 1, 1), D(2015, 1, 1), D(2014, 1, 1), D(2014, 12, 1),
                revoked=D(2014, 3, 1), ev=True,
            ),
            leaf(1, D(2014, 1, 1), D(2015, 1, 1), D(2014, 1, 1), D(2014, 12, 1)),
        ]
        series = revocation_series(encode_leaves(leaves), D(2014, 6, 1), D(2014, 6, 1))
        assert series.fresh_revoked_ev[0] == pytest.approx(1.0)
        assert series.fresh_revoked_all[0] == pytest.approx(0.5)

    def test_empty_denominator_is_zero(self):
        leaves = [leaf(0, D(2014, 1, 1), D(2014, 2, 1), D(2014, 1, 1), D(2014, 2, 1))]
        series = revocation_series(encode_leaves(leaves), D(2015, 1, 1), D(2015, 1, 1))
        assert series.fresh_revoked_all[0] == pytest.approx(0.0)

    def test_peak_finder(self):
        leaves = [
            leaf(
                0, D(2014, 1, 1), D(2015, 1, 1), D(2014, 1, 1), D(2014, 12, 1),
                revoked=D(2014, 6, 1),
            ),
        ]
        series = revocation_series(encode_leaves(leaves), D(2014, 5, 1), D(2014, 7, 1), step_days=31)
        peak_day, peak_value = series.peak_fresh_revoked()
        assert peak_value == pytest.approx(1.0) and peak_day >= D(2014, 6, 1)

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            revocation_series(encode_leaves([]), D(2015, 1, 1), D(2014, 1, 1))


class TestChainSets:
    UTC = datetime.timezone.utc
    NB = datetime.datetime(2014, 1, 1, tzinfo=UTC)
    NA = datetime.datetime(2016, 1, 1, tzinfo=UTC)

    def _hierarchy(self):
        from repro.ca.authority import CertificateAuthority

        root = CertificateAuthority.create_root("CS Root", "cs-root", self.NB, self.NA)
        int1 = root.create_intermediate("CS Int 1", "cs-int1", self.NB, self.NA)
        int2 = int1.create_intermediate("CS Int 2", "cs-int2", self.NB, self.NA)
        leaf_a = int2.issue_leaf(
            "a.example", KeyPair.generate("cs-a").public_key, self.NB, self.NA,
            include_crl=False, include_ocsp=False,
        )
        leaf_b = int1.issue_leaf(
            "b.example", KeyPair.generate("cs-b").public_key, self.NB, self.NA,
            include_crl=False, include_ocsp=False,
        )
        return root, int1, int2, leaf_a, leaf_b

    def test_iterative_intermediate_discovery(self):
        root, int1, int2, leaf_a, leaf_b = self._hierarchy()
        # Shuffle so int2 precedes int1: only iteration can admit it.
        pool = [int2.certificate, leaf_a, leaf_b, int1.certificate]
        sets = build_chain_sets(pool, [root.certificate])
        assert sets.intermediate_count == 2
        assert sets.leaf_count == 2
        assert not sets.rejected

    def test_orphan_rejected(self):
        root, int1, int2, leaf_a, _ = self._hierarchy()
        from repro.ca.authority import CertificateAuthority

        stranger = CertificateAuthority.create_root(
            "Stranger", "cs-stranger", self.NB, self.NA
        )
        orphan = stranger.issue_leaf(
            "orphan.example", KeyPair.generate("cs-o").public_key, self.NB, self.NA,
            include_crl=False, include_ocsp=False,
        )
        sets = build_chain_sets(
            [int1.certificate, int2.certificate, leaf_a, orphan],
            [root.certificate],
        )
        assert orphan in sets.rejected
        assert leaf_a in sets.leaf_set

    def test_expired_cert_still_admitted(self):
        """§3.1: the pipeline ignores date errors."""
        root, int1, int2, leaf_a, _ = self._hierarchy()
        expired = int1.issue_leaf(
            "old.example",
            KeyPair.generate("cs-old").public_key,
            datetime.datetime(2010, 1, 1, tzinfo=self.UTC),
            datetime.datetime(2011, 1, 1, tzinfo=self.UTC),
            include_crl=False,
            include_ocsp=False,
        )
        sets = build_chain_sets([int1.certificate, expired], [root.certificate])
        assert expired in sets.leaf_set

    def test_ecosystem_sample(self, ecosystem):
        """The §3.1 algorithm over materialised ecosystem certificates."""
        sample = [
            ecosystem.materialize(l)
            for l in ecosystem.leaf_records(slice(None, None, 2000))
        ]
        intermediates = [
            ca.certificate
            for state in ecosystem.brands.values()
            for ca in state.intermediate_cas
        ]
        sets = build_chain_sets(sample + intermediates, ecosystem.roots)
        assert sets.leaf_count == len(sample)
        assert sets.intermediate_count == len(intermediates)
