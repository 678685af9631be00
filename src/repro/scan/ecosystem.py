"""The synthetic Web-PKI ecosystem.

:class:`Ecosystem` generates, deterministically from a seed, everything
the paper's scans observed: a root store, an Intermediate Set of real CA
certificates, a Leaf Set of certificate lifecycles, per-CA CRLs
(with realistic sharding, entry populations, and byte sizes), revocation
events including the Heartbleed burst of April 2014, hosting/stapling
deployment, and Alexa popularity ranks.

Generation is *sharded* (docs/PERFORMANCE.md): every brand is built from
its own seed-stable RNG substreams by :mod:`repro.scan.shardgen`, so the
corpus is byte-identical whether it is built here in one pass, merged
from shard parts built by the corpus builder's worker processes
(:meth:`from_parts`), or read back out of the on-disk corpus store
(:meth:`from_corpus`).

Calibration targets come from :class:`~repro.scan.calibration.Calibration`
and the per-CA profiles in :mod:`repro.ca.profiles`; DESIGN.md §2 explains
why this substitution preserves the behaviour the paper measures.
"""

from __future__ import annotations

import datetime

import numpy as np

from repro.ca.profiles import PAPER_CA_PROFILES, CaProfile
from repro.pki.certificate import Certificate, CertificateBuilder
from repro.pki.keys import KeyPair
from repro.pki.name import Name
from repro.revocation.reason import ReasonCode
from repro.scan import corpus, shardgen
from repro.scan.bulk import DayInterner
from repro.scan.calibration import Calibration
from repro.scan.corpus import LeafColumns
from repro.scan.crl_model import EcosystemCrl
from repro.scan.records import IntermediateRecord, LeafRecord
from repro.scan.shardgen import BrandState

__all__ = ["Ecosystem"]

_UTC = datetime.timezone.utc


def _dt(day: datetime.date) -> datetime.datetime:
    return datetime.datetime(day.year, day.month, day.day, tzinfo=_UTC)


class Ecosystem:
    """Deterministic synthetic PKI ecosystem (see module docstring).

    The constructor generates every brand in-process, in profile order;
    :meth:`from_parts` assembles one from shard parts built elsewhere,
    and :meth:`from_corpus` from a corpus store's columns.  All three
    attach the generated columns through one path, so :attr:`leaves` is
    the Leaf Set as :class:`~repro.scan.corpus.LeafColumns` (row ``i``
    is cert_id ``i``) and every CRL's ``entries`` its entry columns.
    """

    def __init__(
        self,
        calibration: Calibration | None = None,
        profiles: tuple[CaProfile, ...] = PAPER_CA_PROFILES,
    ) -> None:
        self.calibration = calibration or Calibration()
        self.profiles = profiles
        self._scaffold()
        # Each brand only reads its own substreams, so the order is
        # bookkeeping; the scaffold built above is the one populated.
        parts = [
            corpus.encode_brand_parts(
                state, shardgen.populate_brand(self.calibration, state)
            )
            for state in self.brands.values()
        ]
        self._decode(corpus.concat_parts(parts))
        self._finalize(assign_alexa=True)

    @classmethod
    def from_corpus(
        cls,
        calibration: Calibration,
        arrays: dict,
        meta: dict,
        profiles: tuple[CaProfile, ...] = PAPER_CA_PROFILES,
    ) -> Ecosystem:
        """Rebuild an ecosystem from stored corpus columns.

        The deterministic scaffold (roots, intermediates, CRL shards,
        URL tables) is regenerated from the calibration; only the
        generated randomness comes from ``arrays``, attached as views.
        Raises ``ValueError`` on a format/seed/scale mismatch or a
        damaged column.
        """
        if meta.get("format") != corpus.CORPUS_FORMAT:
            raise ValueError(f"unsupported corpus format {meta.get('format')!r}")
        if meta.get("seed") != calibration.seed or meta.get("scale") != repr(
            calibration.scale
        ):
            raise ValueError("corpus was generated under a different calibration")

        self = cls.__new__(cls)
        self.calibration = calibration
        self.profiles = profiles
        self._scaffold()
        if meta.get("leaf_count") != sum(
            layout.cert_count for layout in self._layouts
        ):
            raise ValueError("corpus leaf count does not match the calibration")
        self._decode(arrays)
        self._finalize(assign_alexa=False)  # ranks came out of the columns
        return self

    @classmethod
    def from_parts(
        cls,
        calibration: Calibration,
        parts_by_brand: dict,
        profiles: tuple[CaProfile, ...] = PAPER_CA_PROFILES,
    ) -> Ecosystem:
        """Assemble an ecosystem from pre-built columnar brand parts.

        The corpus builder's shard tasks return these parts (and, under
        a checkpoint directory, journal them as they complete); a resumed
        build merges checkpointed and freshly generated parts through
        this one path, so interrupted and uninterrupted builds converge
        on the same ecosystem (the parts are keyed on brand substreams,
        not on which run or shard produced them).  The parts are
        concatenated in profile order and attached exactly as
        :meth:`from_corpus` attaches a store; only the Alexa ranks, which
        worker-built parts leave as zeros, are assigned here.
        """
        self = cls.__new__(cls)
        self.calibration = calibration
        self.profiles = profiles
        self._scaffold()
        missing = [
            profile.name
            for profile in profiles
            if profile.name not in parts_by_brand
        ]
        if missing:
            raise ValueError(f"missing brand parts: {', '.join(missing)}")
        self._decode(
            corpus.concat_parts([parts_by_brand[profile.name] for profile in profiles])
        )
        self._finalize(assign_alexa=True)
        return self

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _scaffold(self) -> None:
        """Roots, brand states, CRL shards: cheap, fully deterministic."""
        calibration = self.calibration
        self._layouts = shardgen.layout_brands(calibration, self.profiles)
        self._root_cas, self.roots = shardgen.build_roots(
            calibration, self.profiles
        )
        self.root_store: frozenset[bytes] = frozenset(
            cert.fingerprint for cert in self.roots
        )
        self.brands: dict[str, BrandState] = {}
        self.intermediates: list[IntermediateRecord] = []
        #: OCSP responder URL per intermediate id.
        self.ocsp_urls: list[str] = []
        self.crls: list[EcosystemCrl] = []
        self._crl_by_url: dict[str, EcosystemCrl] = {}
        for profile, layout in zip(self.profiles, self._layouts):
            state = shardgen.build_brand_scaffold(
                calibration, profile, layout, self._root_cas[profile.name]
            )
            self.brands[profile.name] = state
            self.intermediates.extend(state.intermediate_records)
            self.ocsp_urls.extend(state.ocsp_urls)
            self.crls.extend(state.crls)
            self._crl_by_url.update(state.crl_by_url)
        # One size model per distinct CRL header in this ecosystem.
        size_models: dict = {}
        for crl in self.crls:
            crl.size_models = size_models

    def _decode(self, arrays: dict) -> None:
        """Attach full corpus columns to this scaffold: the Leaf Set as
        views of the leaf columns, then every CRL's run of entry rows.
        Nothing is copied or decoded into records, and a damaged column
        raises ``ValueError``."""
        self.leaves: LeafColumns = corpus.decode_leaves(
            arrays, list(self.brands.values())
        )
        corpus.decode_crl_population(arrays, self.crls, self.calibration)

    def _finalize(self, assign_alexa: bool) -> None:
        """Merge-time global stages + derived counts."""
        if assign_alexa:
            self.leaves.alexa = shardgen.alexa_ranks(self.calibration, self.leaves)
        #: count of scan-visible but invalid certificates (self-signed
        #: router certs etc.); tracked as a count, per §3.1.
        targets = self.calibration.targets
        ratio = targets.unique_certs_seen / targets.leaf_set_size
        self.invalid_cert_count = int(len(self.leaves) * (ratio - 1.0))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def leaf_records(self, rows=None) -> list[LeafRecord]:
        """The :class:`LeafRecord` copies of the Leaf Set's ``rows`` (a
        mask, an index array or list, or a slice; every row if None), in
        row order: the one decoder of leaf columns.  Brands and URLs come
        from the scaffold: intermediate ids index :attr:`intermediates`
        and the OCSP URL table, CRL indexes :attr:`crls`."""
        cert_ids = np.arange(len(self.leaves))
        if rows is not None:
            cert_ids = cert_ids[rows]
        leaves = self.leaves[cert_ids]
        days = DayInterner()

        def dates(column: np.ndarray) -> list[datetime.date | None]:
            return [days[ordinal] if ordinal else None for ordinal in column.tolist()]

        intermediates = leaves.intermediate.tolist()
        # Keys in LeafRecord field order: the records are built positionally.
        fields = {
            "cert_id": cert_ids.tolist(),
            "brand": [self.intermediates[i].brand for i in intermediates],
            "intermediate_id": intermediates,
            "serial_number": leaves.serial_numbers(),
            "not_before": dates(leaves.not_before),
            "not_after": dates(leaves.not_after),
            "birth": dates(leaves.birth),
            "death": dates(leaves.death),
            "is_ev": [bool(flag) for flag in leaves.is_ev.tolist()],
            "crl_url": [
                None if index < 0 else self.crls[index].url
                for index in leaves.crl.tolist()
            ],
            "ocsp_url": [
                self.ocsp_urls[intermediate] if has_ocsp else None
                for intermediate, has_ocsp in zip(
                    intermediates, leaves.has_ocsp.tolist()
                )
            ],
            "revoked_at": dates(leaves.revoked),
            "revocation_reason": [
                None if code < 0 else ReasonCode(code)
                for code in leaves.reason.tolist()
            ],
            "server_count": leaves.server_count.tolist(),
            "stapling_servers": leaves.stapling.tolist(),
            "alexa_rank": [rank or None for rank in leaves.alexa.tolist()],
        }
        return list(map(LeafRecord, *fields.values()))

    def leaf(self, cert_id: int) -> LeafRecord:
        """The record of one leaf."""
        return self.leaf_records([cert_id])[0]

    def crl_for_url(self, url: str) -> EcosystemCrl:
        return self._crl_by_url[url]

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)

    def total_crl_entries(self, on: datetime.date) -> int:
        return sum(crl.entry_count(on) for crl in self.crls)

    # -- materialisation -----------------------------------------------

    def _issuer(self, leaf: LeafRecord):
        """The intermediate CA that issued ``leaf``."""
        state = self.brands[leaf.brand]
        return state.intermediate_cas[
            leaf.intermediate_id - state.layout.intermediate_base
        ]

    def materialize(self, leaf: LeafRecord) -> Certificate:
        """Build the real, signed certificate for a leaf record."""
        issuer_ca = self._issuer(leaf)
        keys = KeyPair.generate(f"leaf/{leaf.cert_id}/{self.calibration.seed}")
        builder = (
            CertificateBuilder()
            .subject(Name.make(f"site{leaf.cert_id}.example"))
            .issuer(issuer_ca.name)
            .serial_number(leaf.serial_number)
            .public_key(keys.public_key)
            .validity(_dt(leaf.not_before), _dt(leaf.not_after))
        )
        if leaf.crl_url:
            builder.crl_urls([leaf.crl_url])
        if leaf.ocsp_url:
            builder.ocsp_urls([leaf.ocsp_url])
        if leaf.is_ev:
            builder.ev()
        return builder.sign(issuer_ca.keys)

    def chain_for(self, leaf: LeafRecord) -> list[Certificate]:
        """[leaf certificate, intermediate, root] for chain verification."""
        return [
            self.materialize(leaf),
            self._issuer(leaf).certificate,
            self._root_cas[leaf.brand].certificate,
        ]
