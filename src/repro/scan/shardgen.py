"""Sharded, seed-stable ecosystem generation.

The generator's unit of work is one CA *brand*: every brand's scaffold
(intermediates + CRL shards), leaf population, revocation assignment,
and synthetic CRL population is a pure function of ``(calibration,
profile)`` drawing from its own :func:`~repro.scan.streams.substream`.
Leaf blocks of :data:`LEAF_BLOCK` certificates get their own substream
too, so a brand's leaves never depend on how many leaves precede them.

Because no stage reads a shared RNG, brands can be built in any order,
grouped into any number of shards, and farmed out to worker processes --
the merged corpus is byte-identical in every case (the shard-determinism
property tests in ``tests/scan/test_shardgen.py`` assert exactly this).
Only two steps are global and run at merge time: the Alexa ranking
(one ``"alexa"`` substream over the merged Leaf Set) and the invalid-
certificate count (pure arithmetic).

Generation draws straight into the corpus codec's columns: each brand's
leaves into a :class:`~repro.scan.corpus.LeafColumns` (day ordinals and
ints, no record), its CRL entries into
:class:`~repro.scan.corpus.EntryColumns`.  Every unit draws whole
columns, each from one block of its substream's 32-bit words
(:mod:`repro.scan.streams`), in an order each unit's docstring lists:
a value is drawn for every row, and a branch is a mask that picks
among the drawn values.  A rejection step redraws only its pending
rows, and a sample or shuffle is a stable sort of drawn keys.

Deterministic ID geometry (:class:`BrandLayout`) replaces the old
sequential allocators: ``cert_id`` ranges are the running sum of
``scaled_certs`` in profile order (so row ``i`` of the merged leaf
columns is cert_id ``i``), ``intermediate_id`` ranges the running sum of
``profile.intermediates``, sequential serials are ``1000 + index-within-
brand``, and synthetic CRL entries draw serials from a per-CRL band
above :data:`SYNTH_SERIAL_BASE` -- disjoint from every leaf serial.
"""

from __future__ import annotations

import bisect
import datetime
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from repro.ca.authority import CertificateAuthority
from repro.ca.profiles import PAPER_CA_PROFILES, CaProfile
from repro.revocation.reason import ReasonCode
from repro.revocation.sizing import representative_entry_size
from repro.scan.calibration import Calibration
from repro.scan.corpus import (
    EntryColumns,
    LeafColumns,
    encode_brand_parts,
)
from repro.scan.crl_model import EcosystemCrl
from repro.scan.hidden import HiddenPopulation
from repro.scan.records import IntermediateRecord
from repro.scan.streams import below, random_pairs, substream, words

__all__ = [
    "BrandLayout",
    "BrandState",
    "ISSUE_TRIES",
    "LEAF_BLOCK",
    "MATERIALIZE_THRESHOLD",
    "SYNTH_SERIAL_BASE",
    "SYNTH_SERIAL_STRIDE",
    "alexa_ranks",
    "build_brand",
    "build_brand_leaves",
    "build_brand_scaffold",
    "build_root_ca",
    "build_roots",
    "layout_brands",
    "plan_shards",
    "populate_brand",
]

_UTC = datetime.timezone.utc

#: leaves per RNG block: each (brand, block) pair draws from its own
#: substream, so intra-brand generation order is partition-independent.
LEAF_BLOCK = 4096

#: materialise individual synthetic entries only below this expected
#: count (bigger CRLs are dropped by the CRLSet pipeline anyway, so they
#: only need bulk counts).
MATERIALIZE_THRESHOLD = 15_000

#: synthetic entries on sequential-serial brands take serials from a
#: per-CRL band: BASE + global_crl_index * STRIDE + counter.  Leaf
#: serials (1000 + index) never reach BASE, and a materialised CRL holds
#: far fewer than STRIDE entries, so the bands collide with nothing.
SYNTH_SERIAL_BASE = 10**12
SYNTH_SERIAL_STRIDE = 10**7


def _dt(day: datetime.date) -> datetime.datetime:
    return datetime.datetime(day.year, day.month, day.day, tzinfo=_UTC)


class _Mix:
    """A mixture drawn with one ``rng.random()`` roll: the first value
    whose running probability total exceeds the roll, else the last
    value.  ``pairs`` is ``((value, probability), ...)``; the running
    totals are summed once, in declaration order, and searched by
    bisection."""

    __slots__ = ("_cumulative", "_values")

    def __init__(self, pairs) -> None:
        pairs = tuple(pairs)
        self._cumulative = list(accumulate(probability for _, probability in pairs))
        values = [value for value, _ in pairs]
        self._values = values + values[-1:]

    def draw(self, rng):
        return self._values[bisect.bisect_right(self._cumulative, rng.random())]

    def pick(self, rolls: np.ndarray) -> np.ndarray:
        """:meth:`draw`'s values for rolls already drawn: the same
        bisection, as one ``searchsorted`` over the same float totals."""
        index = np.searchsorted(self._cumulative, rolls, side="right")
        return np.array(self._values)[index]


def _reason_mix(cal: Calibration) -> _Mix:
    """The calibration's reason-code mixture, as the codec's reason
    column codes (-1 = no reason)."""
    return _Mix(
        (-1 if name is None else int(ReasonCode[name]), probability)
        for name, probability in cal.reason_mix
    )


# ---------------------------------------------------------------------------
# layout
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BrandLayout:
    """Deterministic ID geometry for one brand.

    All ranges are running sums in profile declaration order, so they
    depend only on the profile tuple and the scale -- never on which
    shard or process builds the brand.
    """

    name: str
    index: int
    cert_base: int
    cert_count: int
    intermediate_base: int
    crl_base: int
    crl_count: int

    @property
    def cert_rows(self) -> slice:
        """The brand's rows of the Leaf Set."""
        return slice(self.cert_base, self.cert_base + self.cert_count)


def layout_brands(
    calibration: Calibration, profiles: tuple[CaProfile, ...]
) -> tuple[BrandLayout, ...]:
    layouts = []
    cert_base = intermediate_base = crl_base = 0
    for index, profile in enumerate(profiles):
        cert_count = profile.scaled_certs(calibration.scale)
        crl_count = profile.scaled_crl_count(calibration.scale)
        layouts.append(
            BrandLayout(
                name=profile.name,
                index=index,
                cert_base=cert_base,
                cert_count=cert_count,
                intermediate_base=intermediate_base,
                crl_base=crl_base,
                crl_count=crl_count,
            )
        )
        cert_base += cert_count
        intermediate_base += profile.intermediates
        crl_base += crl_count
    return tuple(layouts)


def plan_shards(
    calibration: Calibration,
    profiles: tuple[CaProfile, ...],
    shards: int,
) -> tuple[tuple[str, ...], ...]:
    """Partition brands into ``shards`` groups, balanced by leaf count.

    Deterministic greedy bin-packing: brands in descending ``scaled_certs``
    (ties broken by name) onto the least-loaded shard (ties broken by
    shard index).  The partition never affects the corpus -- only which
    worker builds what.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    shards = min(shards, len(profiles))
    bins: list[list[str]] = [[] for _ in range(shards)]
    loads = [0] * shards
    order = sorted(
        profiles, key=lambda p: (-p.scaled_certs(calibration.scale), p.name)
    )
    for profile in order:
        target = min(range(shards), key=lambda i: (loads[i], i))
        bins[target].append(profile.name)
        loads[target] += profile.scaled_certs(calibration.scale)
    declaration = {profile.name: i for i, profile in enumerate(profiles)}
    return tuple(
        tuple(sorted(group, key=declaration.__getitem__)) for group in bins
    )


# ---------------------------------------------------------------------------
# roots + scaffold
# ---------------------------------------------------------------------------

_ROOT_NOT_BEFORE = datetime.date(2006, 1, 1)
_ROOT_NOT_AFTER = datetime.date(2030, 1, 1)


def build_root_ca(
    calibration: Calibration, profile: CaProfile
) -> CertificateAuthority:
    return CertificateAuthority.create_root(
        common_name=f"{profile.name} Root CA",
        seed=f"root/{profile.name}/{calibration.seed}",
        not_before=_dt(_ROOT_NOT_BEFORE),
        not_after=_dt(_ROOT_NOT_AFTER),
    )


def build_roots(
    calibration: Calibration, profiles: tuple[CaProfile, ...]
) -> tuple[dict[str, CertificateAuthority], list]:
    """(brand -> root CA, all root certificates incl. idle fillers)."""
    root_cas = {p.name: build_root_ca(calibration, p) for p in profiles}
    roots = [ca.certificate for ca in root_cas.values()]
    extra = max(0, calibration.root_count - len(profiles))
    for i in range(extra):
        ca = CertificateAuthority.create_root(
            common_name=f"Idle Root CA {i}",
            seed=f"root/idle{i}/{calibration.seed}",
            not_before=_dt(_ROOT_NOT_BEFORE),
            not_after=_dt(_ROOT_NOT_AFTER),
        )
        roots.append(ca.certificate)
    return root_cas, roots


class BrandState:
    """Scaffold for one CA brand: intermediates, CRL shards, URL tables."""

    def __init__(self, profile: CaProfile, layout: BrandLayout) -> None:
        self.profile = profile
        self.layout = layout
        self.intermediate_cas: list[CertificateAuthority] = []
        self.intermediate_records: list[IntermediateRecord] = []
        self.crls: list[EcosystemCrl] = []
        self.ocsp_urls: list[str] = []
        self.crl_by_url: dict[str, EcosystemCrl] = {}
        #: the brand's revoked leaf rows that point at a CRL, in
        #: revocation order, which :func:`populate_brand_synthetic`
        #: lists as the CRLs' observed entries.
        self.revoked_rows = np.empty(0, np.intp)


def _serial_bytes(profile: CaProfile) -> int:
    return 21 if profile.serial_style == "random_long" else 4


def build_brand_scaffold(
    calibration: Calibration,
    profile: CaProfile,
    layout: BrandLayout,
    root_ca: CertificateAuthority,
) -> BrandState:
    """Intermediate CAs, their records, and the brand's CRL shards.

    Draw order (one ``"scaffold"`` substream per brand): per-intermediate
    revocation-pointer rolls, then the per-CRL lognormal size factors,
    then one reissue-period draw per CRL.
    """
    cal = calibration
    rng = substream(cal.seed, "scaffold", profile.name)
    state = BrandState(profile, layout)

    for k in range(profile.intermediates):
        not_before = _dt(datetime.date(2008 + (k % 5), 3, 1))
        not_after = _dt(datetime.date(2020 + (k % 5), 3, 1))
        child = root_ca.create_intermediate(
            common_name=f"{profile.name} Issuing CA {k}",
            seed=f"int/{profile.name}/{k}/{cal.seed}",
            not_before=not_before,
            not_after=not_after,
            include_crl=False,
            include_ocsp=False,
        )
        # Intermediate certificates' own revocation pointers follow the
        # paper's §3.2 fractions, independent of the brand.
        draw = rng.random()
        if draw < cal.intermediate_neither_fraction:
            has_crl, has_ocsp = False, False
        else:
            has_crl = rng.random() < cal.intermediate_crl_fraction
            has_ocsp = rng.random() < cal.intermediate_ocsp_fraction
            if not has_crl and not has_ocsp:
                has_crl = True
        record = IntermediateRecord(
            intermediate_id=layout.intermediate_base + k,
            brand=profile.name,
            subject=f"{profile.name} Issuing CA {k}",
            spki_hash=child.keys.key_id,
            has_crl=has_crl,
            has_ocsp=has_ocsp,
            not_before=not_before.date(),
            not_after=not_after.date(),
        )
        state.intermediate_cas.append(child)
        state.intermediate_records.append(record)
        state.ocsp_urls.append(f"http://ocsp.{profile.name.lower()}.example/i{k}")

    # A handful of intermediates get revoked during the study (the
    # DigiNotar/Trustwave-style incidents of §1; Mozilla's OneCRL listed
    # 8 such certificates).  Their leaves stay in the corpus --
    # revocation status is what the clients are supposed to discover.
    if profile.name == "Other" and len(state.intermediate_records) >= 2:
        state.intermediate_records[1].revoked_at = datetime.date(2014, 7, 9)
        state.intermediate_records[
            3 % len(state.intermediate_records)
        ].revoked_at = datetime.date(2013, 12, 2)

    _build_brand_crls(cal, state, rng)
    return state


def _build_brand_crls(cal: Calibration, state: BrandState, rng) -> None:
    profile = state.profile
    shard_count = state.layout.crl_count

    # Per-shard size targets: lognormal variance around the Table 1
    # average, normalised so the mean is exact.
    factors = [
        math.exp(rng.gauss(0.0, cal.shard_size_sigma)) for _ in range(shard_count)
    ]
    mean_factor = sum(factors) / len(factors)
    factors = [f / mean_factor for f in factors]

    plain = representative_entry_size(_serial_bytes(profile), False)
    with_reason = representative_entry_size(_serial_bytes(profile), True)
    effective_entry = 0.7 * plain + 0.3 * with_reason
    reissue_mix = _Mix(cal.crl_reissue_hours_mix)

    for i, factor in enumerate(factors):
        ca = state.intermediate_cas[i % len(state.intermediate_cas)]
        record = state.intermediate_records[i % len(state.intermediate_records)]
        target_bytes = profile.avg_crl_kb * 1024.0 * factor
        target_entries = max(1, int((target_bytes - 400.0) / effective_entry))
        reissue_hours = reissue_mix.draw(rng)
        crl = EcosystemCrl(
            url=f"http://crl.{profile.name.lower()}.example/crl{i}.crl",
            brand=profile.name,
            intermediate_id=record.intermediate_id,
            issuer_name=ca.name,
            issuer_key_hash=ca.keys.key_id,
            signature_size=ca.keys.backend.signature_size,
            signature_algorithm_oid=ca.keys.backend.algorithm_oid,
            serial_bytes=_serial_bytes(profile),
            reissue_hours=reissue_hours,
            covered=profile.crlset_covered,
        )
        crl._target_entries = target_entries  # consumed in population
        state.crls.append(crl)
        state.crl_by_url[crl.url] = crl


# ---------------------------------------------------------------------------
# leaves
# ---------------------------------------------------------------------------


def _issue_distribution(cal: Calibration):
    """Monthly issuance volume: geometric growth from 2011 onwards,
    precomputed as cumulative weights for O(log n) sampling."""
    months: list[datetime.date] = []
    weights: list[float] = []
    cursor = cal.issuance_start
    weight = 1.0
    scan_end = cal.scan_end
    while cursor < scan_end:
        months.append(cursor)
        weights.append(weight)
        weight *= cal.monthly_growth
        year, month = cursor.year, cursor.month + 1
        if month > 12:
            year, month = year + 1, 1
        cursor = datetime.date(year, month, 1)
    cum_weights = list(accumulate(weights))
    return months, cum_weights, cum_weights[-1]


#: issue-date tries before a leaf falls back to the first scan day.
ISSUE_TRIES = 40


def build_brand_leaves(calibration: Calibration, state: BrandState) -> LeafColumns:
    """The brand's Leaf Set slice as leaf columns, in cert_id order: no
    leaf revoked yet (``revoked`` 0, ``reason`` -1) and none ranked
    (``alexa`` 0).

    Each :data:`LEAF_BLOCK`-sized block draws from its own substream
    (:func:`_leaf_block`), so any block -- hence any brand, hence any
    shard -- can be generated independently and still merge
    byte-identically.
    """
    count = state.layout.cert_count
    blocks = [
        _leaf_block(calibration, state, start, min(start + LEAF_BLOCK, count))
        for start in range(0, count, LEAF_BLOCK)
    ]
    leaves = LeafColumns(*map(np.concatenate, zip(*blocks)))
    listed = leaves.crl[leaves.crl >= 0] - state.layout.crl_base
    assigned = np.bincount(listed, minlength=len(state.crls)).tolist()
    for crl_model, pointing in zip(state.crls, assigned):
        crl_model.assigned_cert_count += pointing
    return leaves


def _leaf_block(
    cal: Calibration, state: BrandState, start: int, stop: int
) -> tuple[np.ndarray, ...]:
    """Rows ``start:stop`` of the brand's leaf columns, drawn as whole
    columns from the block's ``("leaves", brand, block)`` substream.

    Column draws, in order (a ``u`` column is :func:`random_pairs`, a
    ``below`` column :func:`below`, one row per leaf unless named):

    1. up to :data:`ISSUE_TRIES` rounds over the rows still pending, each
       a ``u`` month, a ``below(28)`` day and a ``u`` validity; a row
       stops pending once the certificate overlaps the scan window (the
       Leaf Set is, by definition, what the scans observed), and the
       rows left after the last round take the first scan day and 365
       days;
    2. the first-advertised lag, ``below(birth_lag_max + 1)``;
    3. the death: a ``u`` early-death roll, a ``u`` past-expiry roll,
       then ``below`` the mid-life span, the overrun and the 22-day
       early takedown -- every row draws all three, and the rolls pick;
    4. the issuing intermediate, ``below(intermediates)``;
    5. on random-long brands, a 160-bit serial of five words, the first
       least significant;
    6. on brands with CRLs, a ``u`` CRL-pointer roll and ``below(CRLs)``;
    7. on brands with an OCSP ramp, the adoption day ``below(ramp + 1)``;
       then a ``u`` OCSP roll;
    8. a ``u`` EV roll;
    9. a ``u`` server-count mixture roll, then ``below`` the drawn range;
    10. a ``u`` stapling roll, then ``below(servers - 1)`` stapling
        servers for a partial deployment (bound 1 where a leaf has one
        server).
    """
    profile = state.profile
    layout = state.layout
    rng = substream(cal.seed, "leaves", profile.name, start // LEAF_BLOCK)
    n = stop - start
    months, cum_weights, total_weight = _issue_distribution(cal)
    # Day d of a month is its "day 0" ordinal plus d.
    month_day0 = np.array([month.toordinal() - 1 for month in months])
    validity_mix = _Mix(cal.validity_mix)
    scan_start, scan_end = cal.scan_start.toordinal(), cal.scan_end.toordinal()
    intermediate_ids = np.array(
        [record.intermediate_id for record in state.intermediate_records], np.int32
    )

    issue = np.full(n, scan_start)
    validity = np.full(n, 365)
    pending = np.arange(n)
    for _ in range(ISSUE_TRIES):
        if not len(pending):
            break
        tries = len(pending)
        rolls = random_pairs(rng, tries) * total_weight
        day = month_day0[np.searchsorted(cum_weights, rolls, side="right")]
        day += 1 + below(rng, 28, tries)
        days = validity_mix.pick(random_pairs(rng, tries))
        overlaps = (day + days >= scan_start) & (day <= scan_end)
        issue[pending[overlaps]] = day[overlaps]
        validity[pending[overlaps]] = days[overlaps]
        pending = pending[~overlaps]
    not_after = issue + validity

    birth = issue + below(rng, cal.birth_lag_max_days + 1, n)
    early = random_pairs(rng, n) < cal.early_death_fraction
    past = random_pairs(rng, n) < cal.advertise_past_expiry
    # Replaced mid-life (rekeyed, reissued, site retired).
    replaced = birth + 30 + below(rng, np.maximum(31, validity) - 29, n)
    overrun = not_after + 1 + below(rng, cal.expiry_overrun_max_days, n)
    taken_down = not_after - below(rng, 22, n)
    death = np.where(early, replaced, np.where(past, overrun, taken_down))
    death = np.maximum(death, birth)

    intermediate = below(rng, len(state.intermediate_cas), n)
    serial = _serial_column(
        rng, n, None if profile.serial_style == "random_long" else 1000 + start
    )
    crl = np.full(n, -1)
    if state.crls:
        listed = random_pairs(rng, n) < profile.crl_inclusion
        pointed = layout.crl_base + below(rng, len(state.crls), n)
        crl[listed] = pointed[listed]
    adoption = profile.ocsp_since.toordinal()
    if profile.ocsp_ramp_days:
        adoption = adoption + below(rng, profile.ocsp_ramp_days + 1, n)
    has_ocsp = (issue >= adoption) & (
        random_pairs(rng, n) < cal.ocsp_inclusion_after_adoption
    )
    is_ev = random_pairs(rng, n) < profile.ev_fraction
    server_count_mix = _Mix(((low, high), p) for low, high, p in cal.server_count_mix)
    low, high = server_count_mix.pick(random_pairs(rng, n)).T
    server_count = low + below(rng, high - low + 1, n)

    roll = random_pairs(rng, n)
    staple_all = np.where(
        is_ev, cal.ev_stapling_all_fraction, cal.stapling_all_fraction
    )
    staple_some = np.where(
        is_ev,
        cal.ev_stapling_all_fraction + cal.ev_stapling_partial_fraction,
        cal.stapling_all_fraction + cal.stapling_partial_fraction,
    )
    some = 1 + below(rng, np.maximum(1, server_count - 1), n)
    stapling = np.where(
        roll < staple_all,
        server_count,
        np.where((roll < staple_some) & (server_count > 1), some, 0),
    )
    return (
        *(day.astype(np.int32) for day in (issue, not_after, birth, death)),
        np.zeros(n, np.int32),
        np.full(n, -1, np.int8),
        is_ev.astype(np.uint8),
        server_count.astype(np.int32),
        stapling.astype(np.int32),
        np.zeros(n, np.int32),
        serial,
        intermediate_ids[intermediate],
        crl.astype(np.int32),
        has_ocsp.astype(np.uint8),
    )


def _serial_column(rng, count: int, first: int | None) -> np.ndarray:
    """``count`` serials as the codec's ``(count, 21)`` blob: with
    ``first`` None, each row's 160-bit draw of five words, the first
    least significant; else consecutive ints from ``first``."""
    if first is None:
        serial_bytes = words(rng, 5 * count).reshape(count, 5)[:, ::-1].astype(">u4")
    else:
        serial_bytes = np.arange(first, first + count, dtype=">u8")[:, None]
    serial_bytes = serial_bytes.view(np.uint8)
    blob = np.zeros((count, 21), np.uint8)
    blob[:, 21 - serial_bytes.shape[1] :] = serial_bytes
    return blob


# ---------------------------------------------------------------------------
# revocation
# ---------------------------------------------------------------------------


def assign_brand_revocations(
    calibration: Calibration, state: BrandState, leaves: LeafColumns
) -> None:
    """Steady-state churn + the Heartbleed burst, one ``("revoke",
    brand)`` substream per brand.

    Fills in the brand's ``revoked``, ``reason`` and ``death`` columns
    and keeps the revoked rows that point at a CRL, in revocation order,
    in ``state.revoked_rows``; depends only on this brand's own leaves.

    The revoked rows are chosen first: the steady sample, the Heartbleed
    picks and any shortfall, in that order.  Column draws, in order:

    1. a sort key per leaf, one word each; the steady sample is the
       first keys' rows in a stable sort;
    2. past the steady sample, a ``u`` per row still eligible at
       Heartbleed (fresh, alive, not revoked): Efraimidis-Spirakis keys
       ``-log1p(-u) / weight``, the lowest picked, weights favouring
       certificates with more validity left;
    3. a ``u`` per pick: its offset from Heartbleed, an exponential
       ``floor(-log1p(-u) * decay)`` capped at the window;
    4. per revoked row, in revocation order: ``below`` its steady-churn
       span (used by steady and shortfall rows), a ``u`` reason roll, a
       ``u`` keep-advertising roll and a ``below(18)`` takedown.
    Any shortfall (tiny corpora) is the first rows never revoked, as
    late steady churn.
    """
    cal = calibration
    profile = state.profile
    target = profile.scaled_revoked(cal.scale)
    count = len(leaves)
    if not count or target == 0:
        return
    rng = substream(cal.seed, "revoke", profile.name)
    not_before, not_after = leaves.not_before, leaves.not_after
    steady_p = min(cal.steady_cap, profile.revoked_fraction * cal.steady_share)
    steady_count = min(target, round(count * steady_p))
    steady = np.argsort(words(rng, count), kind="stable")[:steady_count]
    heartbleed = cal.heartbleed_date.toordinal()
    picked = shortfall = np.empty(0, np.intp)
    offsets = np.empty(0, np.int64)
    remaining = target - steady_count
    if remaining:
        free = np.ones(count, bool)
        free[steady] = False
        eligible = np.flatnonzero(
            free
            & (not_before <= heartbleed)
            & (heartbleed <= not_after)
            & (leaves.birth <= heartbleed)
            & (heartbleed <= leaves.death)
        )
        # Bias toward certificates with more remaining validity: a
        # revocation is only worth requesting if the certificate would
        # otherwise stay valid for a while (cf. [52]).
        weights = np.maximum(1.0, not_after[eligible] - heartbleed) ** 0.75
        keys = -np.log1p(-random_pairs(rng, len(eligible))) / weights
        picked = eligible[np.argsort(keys, kind="stable")[:remaining]]
        offsets = np.floor(
            -np.log1p(-random_pairs(rng, len(picked))) * cal.heartbleed_decay_days
        )
        offsets = np.minimum(offsets, cal.heartbleed_window_days).astype(np.int64)
        free[picked] = False
        shortfall = np.flatnonzero(free)[: remaining - len(picked)]
    rows = np.concatenate([steady, picked, shortfall])

    start = not_before[rows] + 7
    last = np.minimum(not_after[rows], cal.measurement_end.toordinal())
    revoked_on = start + below(rng, np.maximum(1, last - start + 1), len(rows))
    revoked_on[steady_count : steady_count + len(picked)] = np.minimum(
        heartbleed + offsets, not_after[picked]
    )
    reasons = _reason_mix(cal).pick(random_pairs(rng, len(rows)))
    # Most administrators deploy the replacement certificate right around
    # the revocation (often just before requesting it).
    replaced = random_pairs(rng, len(rows)) >= cal.keep_advertising_after_revoke
    takedown = revoked_on - 14 + below(rng, 18, len(rows))
    death = leaves.death[rows]
    leaves.death[rows] = np.where(
        replaced, np.maximum(leaves.birth[rows], np.minimum(death, takedown)), death
    )
    leaves.revoked[rows] = revoked_on
    leaves.reason[rows] = reasons
    state.revoked_rows = rows[leaves.crl[rows] >= 0]


# ---------------------------------------------------------------------------
# synthetic CRL populations
# ---------------------------------------------------------------------------

_SYNTH_WINDOW_START = datetime.date(2013, 1, 1)


def populate_brand_synthetic(
    calibration: Calibration, state: BrandState, leaves: LeafColumns
) -> None:
    """Fill each CRL up to its size target with never-observed entries:
    individually identified entries on small (CRLSet-eligible) CRLs, bulk
    :class:`HiddenPopulation` counts on big ones.  One substream per CRL,
    so even CRLs within a brand are order-independent.

    Every CRL is assigned its entries as columns: the observed leaf
    revocations (the brand's revoked rows of ``leaves``, indexed in one
    batch per brand, in CRL order, then revocation order), then the
    synthetic entries, drawn straight into columns."""
    cal = calibration
    profile = state.profile
    reasons = _reason_mix(cal)
    random_long = profile.serial_style == "random_long"
    end = cal.measurement_end.toordinal()
    layout = state.layout
    crl_of = leaves.crl[state.revoked_rows] - layout.crl_base
    rows = state.revoked_rows[np.argsort(crl_of, kind="stable")]
    stops = np.cumsum(np.bincount(crl_of, minlength=len(state.crls))).tolist()
    observed = EntryColumns(
        leaves.serial[rows],
        leaves.revoked[rows],
        leaves.reason[rows],
        leaves.not_after[rows],
        (layout.cert_base + rows).astype(np.int32),
    )
    start = 0
    for local_index, (crl, stop) in enumerate(zip(state.crls, stops)):
        columns, start = observed[start:stop], stop
        target = getattr(crl, "_target_entries", 0)
        observed_end = int(
            np.count_nonzero((columns.revoked <= end) & (end <= columns.expiry))
        )
        synthetic_needed = max(0, target - observed_end)
        if synthetic_needed:
            schedule = HiddenPopulation(
                target_end=synthetic_needed,
                window_start=_SYNTH_WINDOW_START,
                window_end=cal.measurement_end,
                heartbleed_date=cal.heartbleed_date,
            )
            if target > MATERIALIZE_THRESHOLD:
                crl.hidden = schedule
            else:
                rng = substream(cal.seed, "synth", profile.name, local_index)
                serial_band = SYNTH_SERIAL_BASE + SYNTH_SERIAL_STRIDE * (
                    layout.crl_base + local_index
                )
                synthetic = _synthetic_entries(
                    rng, cal, schedule, reasons, None if random_long else serial_band
                )
                columns = EntryColumns.concat([columns, synthetic])
        crl.entries = columns


def _synthetic_entries(
    rng,
    cal: Calibration,
    schedule: HiddenPopulation,
    reasons: _Mix,
    serial_band: int | None,
) -> EntryColumns:
    """One materialised CRL's synthetic entries, in FIFO order.

    They follow the *same* additions/removals schedule as the
    bulk-modelled big CRLs: entries expire in FIFO order on the
    schedule's removal days, so the visible count on any day matches the
    schedule exactly (and equals the size target at the measurement
    end).  Serials are 160-bit draws, or consecutive from
    ``serial_band`` when it is given; ``reasons`` picks column codes.

    Column draws, in order: the initial entries' revocation offsets
    (``below(500)``), every entry's ``u`` reason roll (initial entries,
    then the additions in day order), on random-long brands every
    entry's five serial words, and the survivors' expiry offsets
    (``below(671)``, in FIFO order).  Removals draw nothing.
    """
    start = _SYNTH_WINDOW_START.toordinal()
    count = schedule.initial_count
    days, additions, removals = schedule.active_days()
    revoked = np.concatenate(
        [start - 1 - below(rng, 500, count), np.repeat(days, additions)]
    )
    # Rows in draw order, then in FIFO order: the initial entries oldest
    # first (those revoked on the same day keep draw order), then the
    # additions in day order.
    fifo = np.concatenate(
        [np.argsort(revoked[:count], kind="stable"), np.arange(count, len(revoked))]
    )
    revoked = revoked[fifo]
    codes = reasons.pick(random_pairs(rng, len(revoked)))[fifo]
    serials = _serial_column(rng, len(revoked), serial_band)[fifo]

    # Removals take the oldest listed entries, which stop being listed
    # the day before (never before their own revocation day).  Day k ends
    # with FIFO rows [0, cursor[k]) removed, cursor[k] = min(cursor[k-1]
    # + removals[k], listed[k]); that clamped running sum is the plain
    # one plus the running minimum of the headroom, capped at 0.
    listed = count + np.cumsum(additions)
    removed = np.cumsum(removals)
    cursor = removed + np.minimum(np.minimum.accumulate(listed - removed), 0)
    gone = int(cursor[-1]) if len(cursor) else 0
    expiry = np.empty(len(revoked), np.int64)
    removal_day = days[np.searchsorted(cursor, np.arange(gone), side="right")]
    expiry[:gone] = np.maximum(revoked[:gone], removal_day - 1)
    # Survivors expire after the study window.
    end = cal.measurement_end.toordinal()
    expiry[gone:] = end + 30 + below(rng, 671, len(revoked) - gone)
    return EntryColumns(
        serials,
        revoked.astype(np.int32),
        codes.astype(np.int8),
        expiry.astype(np.int32),
        np.full(len(revoked), -1, np.int32),
    )


# ---------------------------------------------------------------------------
# whole-brand chain + merge-time stages
# ---------------------------------------------------------------------------


def populate_brand(calibration: Calibration, state: BrandState) -> LeafColumns:
    """A scaffolded brand's generated population: leaves -> revocations
    -> synthetic CRL entries.  Returns the brand's leaf columns; the
    CRLs hold their entries."""
    leaves = build_brand_leaves(calibration, state)
    assign_brand_revocations(calibration, state, leaves)
    populate_brand_synthetic(calibration, state, leaves)
    return leaves


def build_brand(
    calibration: Calibration,
    profile: CaProfile,
    layout: BrandLayout,
    root_ca: CertificateAuthority | None = None,
) -> tuple[BrandState, LeafColumns]:
    """The full per-brand chain: scaffold, then :func:`populate_brand`.
    Pure in ``(calibration, profile, layout)``; ``root_ca`` is itself
    seed-derived and rebuilt when not passed (the worker path)."""
    if root_ca is None:
        root_ca = build_root_ca(calibration, profile)
    state = build_brand_scaffold(calibration, profile, layout, root_ca)
    return state, populate_brand(calibration, state)


def alexa_ranks(calibration: Calibration, leaves: LeafColumns) -> np.ndarray:
    """Merge-time global stage: the merged Leaf Set's ``alexa`` column,
    drawn from one ``"alexa"`` substream (rank assignment must see every
    brand).  A new array, so the ranks never write into the columns.

    One word per candidate is its sort key: ranks go to the candidates
    in a stable sort of the keys, ties in row order."""
    cal = calibration
    rng = substream(cal.seed, "alexa")
    top_n = cal.scaled(1_000_000)
    # Popular sites are alive near the end of the study and skew toward
    # the big commercial CAs; sample among late-alive leaves.
    cutoff = cal.measurement_end - datetime.timedelta(days=270)
    candidates = np.flatnonzero(leaves.death >= cutoff.toordinal())
    order = np.argsort(words(rng, len(candidates)), kind="stable")
    ranked = candidates[order[:top_n]]
    alexa = np.zeros(len(leaves), np.int32)
    alexa[ranked] = np.arange(1, len(ranked) + 1)
    return alexa


def _shard_layouts(
    calibration: Calibration,
    profiles: tuple[CaProfile, ...],
    brand_names: tuple[str, ...],
) -> list[tuple[CaProfile, BrandLayout]]:
    layouts = {layout.name: layout for layout in layout_brands(calibration, profiles)}
    by_name = {profile.name: profile for profile in profiles}
    return [(by_name[name], layouts[name]) for name in brand_names]


def build_shard_parts(
    calibration: Calibration,
    brand_names: tuple[str, ...],
    profiles: tuple[CaProfile, ...] = PAPER_CA_PROFILES,
) -> dict[str, dict]:
    """Worker entry point: build every brand in ``brand_names`` and return
    its columnar parts (cheap to pickle back to the parent)."""
    parts: dict[str, dict] = {}
    for profile, layout in _shard_layouts(calibration, profiles, brand_names):
        state, leaves = build_brand(calibration, profile, layout)
        parts[profile.name] = encode_brand_parts(state, leaves)
    return parts
