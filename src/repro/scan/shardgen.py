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
Only two steps are global and run at merge time: the Alexa rank shuffle
(one ``"alexa"`` substream over the merged Leaf Set) and the invalid-
certificate count (pure arithmetic).

Deterministic ID geometry (:class:`BrandLayout`) replaces the old
sequential allocators: ``cert_id`` ranges are the running sum of
``scaled_certs`` in profile order (so ``leaves[i].cert_id == i`` after
the merge), ``intermediate_id`` ranges the running sum of
``profile.intermediates``, sequential serials are ``1000 + index-within-
brand``, and synthetic CRL entries draw serials from a per-CRL band
above :data:`SYNTH_SERIAL_BASE` -- disjoint from every leaf serial.
"""

from __future__ import annotations

import bisect
import datetime
import itertools
import math
from dataclasses import dataclass
from functools import partial
from itertools import accumulate

import numpy as np

from repro.ca.authority import CertificateAuthority
from repro.ca.profiles import PAPER_CA_PROFILES, CaProfile
from repro.revocation.reason import ReasonCode
from repro.revocation.sizing import representative_entry_size
from repro.scan.bulk import DayInterner, gc_paused
from repro.scan.calibration import Calibration
from repro.scan.corpus import (
    CrlEntryRecord,
    EntryColumns,
    encode_brand_parts,
    serial_blob,
)
from repro.scan.crl_model import EcosystemCrl
from repro.scan.hidden import HiddenPopulation
from repro.scan.records import IntermediateRecord, LeafRecord
from repro.scan.streams import substream

__all__ = [
    "BrandLayout",
    "BrandState",
    "LEAF_BLOCK",
    "MATERIALIZE_THRESHOLD",
    "SYNTH_SERIAL_BASE",
    "SYNTH_SERIAL_STRIDE",
    "assign_alexa_ranks",
    "build_brand",
    "build_brand_leaves",
    "build_brand_scaffold",
    "build_root_ca",
    "build_roots",
    "layout_brands",
    "plan_shards",
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
        #: CRL URL -> the observed leaf revocations listed on it, in
        #: revocation order, until :func:`populate_brand_synthetic`
        #: encodes them into the CRLs' entries.
        self.observed_entries: dict[str, list[CrlEntryRecord]] = {}
        #: cert_ids of this brand's leaves (contiguous by construction).
        self.leaf_ids: list[int] = []


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


def _draw_stapling(rng, cal: Calibration, server_count: int, is_ev: bool) -> int:
    all_p = cal.ev_stapling_all_fraction if is_ev else cal.stapling_all_fraction
    partial_p = (
        cal.ev_stapling_partial_fraction if is_ev else cal.stapling_partial_fraction
    )
    roll = rng.random()
    if roll < all_p:
        return server_count
    if roll < all_p + partial_p:
        if server_count <= 1:
            return 0
        return rng.randint(1, server_count - 1)
    return 0


def build_brand_leaves(
    calibration: Calibration, state: BrandState
) -> list[LeafRecord]:
    """The brand's Leaf Set slice, in cert_id order.

    Each :data:`LEAF_BLOCK`-sized block draws from its own substream, so
    any block -- hence any brand, hence any shard -- can be generated
    independently and still merge byte-identically.

    Per leaf, in draw order: the issue date and validity (rejection-
    sampled until the certificate overlaps the scan window: the Leaf Set
    is, by definition, what the scans observed), the first-advertised
    lag, the death, the issuing intermediate, the serial, the CRL
    pointer, the OCSP pointer, EV, the server count and the stapling
    servers.
    """
    cal = calibration
    profile = state.profile
    layout = state.layout
    months, cum_weights, total_weight = _issue_distribution(cal)
    # Day arithmetic runs on ordinals; records get interned dates.  Day
    # d of a month is its "day 0" ordinal plus d.
    month_day0 = [month.toordinal() - 1 for month in months]
    days = DayInterner()
    validity_mix = _Mix(cal.validity_mix)
    server_count_mix = _Mix((entry, entry[-1]) for entry in cal.server_count_mix)
    scan_start, scan_end = cal.scan_start.toordinal(), cal.scan_end.toordinal()
    birth_lag_max = cal.birth_lag_max_days
    early_death = cal.early_death_fraction
    past_expiry = cal.advertise_past_expiry
    overrun_max = cal.expiry_overrun_max_days
    ocsp_inclusion = cal.ocsp_inclusion_after_adoption
    ocsp_since, ocsp_ramp = profile.ocsp_since.toordinal(), profile.ocsp_ramp_days
    crl_inclusion, ev_fraction = profile.crl_inclusion, profile.ev_fraction
    count = layout.cert_count
    n_intermediates = len(state.intermediate_cas)
    intermediate_ids = [
        record.intermediate_id for record in state.intermediate_records
    ]
    crl_urls = [crl.url for crl in state.crls]
    n_crls = len(crl_urls)
    ocsp_urls = state.ocsp_urls
    random_long = profile.serial_style == "random_long"
    brand = profile.name
    crl_assigned = [0] * n_crls
    leaves: list[LeafRecord] = []
    bisect_right = bisect.bisect_right

    for block_start in range(0, count, LEAF_BLOCK):
        rng = substream(
            cal.seed, "leaves", profile.name, block_start // LEAF_BLOCK
        )
        random, randint, randrange = rng.random, rng.randint, rng.randrange
        for i in range(block_start, min(block_start + LEAF_BLOCK, count)):
            for _ in range(40):
                month = month_day0[
                    bisect_right(cum_weights, random() * total_weight)
                ]
                issue = month + randint(1, 28)
                validity = validity_mix.draw(rng)
                not_after = issue + validity
                if not_after >= scan_start and issue <= scan_end:
                    break
            else:
                issue, validity = scan_start, 365
                not_after = issue + validity
            birth = issue + randint(0, birth_lag_max)
            if random() < early_death:
                # Replaced mid-life (rekeyed, reissued, site retired).
                death = birth + randint(30, max(31, validity))
            elif random() < past_expiry:
                death = not_after + randint(1, overrun_max)
            else:
                death = not_after - randint(0, 21)
            death = max(death, birth)

            intermediate_index = randrange(n_intermediates)
            serial = rng.getrandbits(160) if random_long else 1000 + i

            crl_url = None
            if n_crls and random() < crl_inclusion:
                crl_index = randrange(n_crls)
                crl_assigned[crl_index] += 1
                crl_url = crl_urls[crl_index]

            ocsp_url = None
            adoption = ocsp_since
            if ocsp_ramp:
                adoption += randint(0, ocsp_ramp)
            if issue >= adoption and random() < ocsp_inclusion:
                ocsp_url = ocsp_urls[intermediate_index]

            is_ev = random() < ev_fraction
            low, high, _ = server_count_mix.draw(rng)
            server_count = randint(low, high)
            stapling_servers = _draw_stapling(rng, cal, server_count, is_ev)

            leaves.append(
                LeafRecord(
                    cert_id=layout.cert_base + i,
                    brand=brand,
                    intermediate_id=intermediate_ids[intermediate_index],
                    serial_number=serial,
                    not_before=days[issue],
                    not_after=days[not_after],
                    birth=days[birth],
                    death=days[death],
                    is_ev=is_ev,
                    crl_url=crl_url,
                    ocsp_url=ocsp_url,
                    server_count=server_count,
                    stapling_servers=stapling_servers,
                )
            )
    state.leaf_ids.extend(range(layout.cert_base, layout.cert_base + count))

    for crl, assigned in zip(state.crls, crl_assigned):
        crl.assigned_cert_count += assigned
    return leaves


# ---------------------------------------------------------------------------
# revocation
# ---------------------------------------------------------------------------


def _weighted_sample(rng, items: list, weights: list, k: int) -> list:
    """Weighted sampling without replacement (Efraimidis-Spirakis)."""
    keyed = [
        (rng.random() ** (1.0 / weight), item)
        for item, weight in zip(items, weights)
    ]
    keyed.sort(reverse=True)
    return [item for _, item in keyed[:k]]


def _steady_revocation_date(rng, cal: Calibration, leaf: LeafRecord):
    start = leaf.not_before + datetime.timedelta(days=7)
    end = min(leaf.not_after, cal.measurement_end)
    if end <= start:
        return start
    span = (end - start).days
    return start + datetime.timedelta(days=rng.randint(0, span))


def _revoke_leaf(
    rng,
    cal: Calibration,
    state: BrandState,
    leaf: LeafRecord,
    when,
    reasons: _Mix,
) -> None:
    leaf.revoked_at = when
    code = reasons.draw(rng)
    leaf.revocation_reason = None if code < 0 else ReasonCode(code)
    if rng.random() >= cal.keep_advertising_after_revoke:
        # Most administrators deploy the replacement certificate right
        # around the revocation (often just before requesting it).
        takedown = when + datetime.timedelta(days=rng.randint(-14, 3))
        leaf.death = max(leaf.birth, min(leaf.death, takedown))
    if leaf.crl_url is not None:
        state.observed_entries.setdefault(leaf.crl_url, []).append(
            CrlEntryRecord(
                serial_number=leaf.serial_number,
                revoked_at=when,
                reason=leaf.revocation_reason,
                cert_not_after=leaf.not_after,
                cert_id=leaf.cert_id,
            )
        )


def assign_brand_revocations(
    calibration: Calibration, state: BrandState, leaves: list[LeafRecord]
) -> None:
    """Steady-state churn + the Heartbleed burst, one substream per brand.

    Mutates leaf records in place and appends observed entries to the
    brand's ``observed_entries``; depends only on this brand's own leaves.
    """
    cal = calibration
    profile = state.profile
    target = profile.scaled_revoked(cal.scale)
    if not leaves or target == 0:
        return
    rng = substream(cal.seed, "revoke", profile.name)
    reasons = _reason_mix(cal)

    steady_p = min(cal.steady_cap, profile.revoked_fraction * cal.steady_share)
    steady_count = min(target, round(len(leaves) * steady_p))
    chosen = rng.sample(range(len(leaves)), min(len(leaves), steady_count))
    revoked: set[int] = set()
    for index in chosen:
        leaf = leaves[index]
        _revoke_leaf(
            rng, cal, state, leaf, _steady_revocation_date(rng, cal, leaf), reasons
        )
        revoked.add(index)

    remaining = target - len(revoked)
    if remaining > 0:
        heartbleed = cal.heartbleed_date
        eligible = [
            index
            for index, leaf in enumerate(leaves)
            if index not in revoked
            and leaf.is_fresh(heartbleed)
            and leaf.is_alive(heartbleed)
        ]
        # Bias toward certificates with more remaining validity: a
        # revocation is only worth requesting if the certificate would
        # otherwise stay valid for a while (cf. [52]).
        weights = [
            max(1.0, (leaves[index].not_after - heartbleed).days) ** 0.75
            for index in eligible
        ]
        take = min(remaining, len(eligible))
        picked = _weighted_sample(rng, eligible, weights, take)
        for index in picked:
            leaf = leaves[index]
            offset = min(
                int(rng.expovariate(1.0 / cal.heartbleed_decay_days)),
                cal.heartbleed_window_days,
            )
            when = heartbleed + datetime.timedelta(days=offset)
            when = min(when, leaf.not_after)
            _revoke_leaf(rng, cal, state, leaf, when, reasons)
            revoked.add(index)

        # Any shortfall (tiny corpora) becomes late steady churn.
        leftovers = [i for i in range(len(leaves)) if i not in revoked]
        for index in leftovers[: max(0, target - len(revoked))]:
            leaf = leaves[index]
            _revoke_leaf(
                rng,
                cal,
                state,
                leaf,
                _steady_revocation_date(rng, cal, leaf),
                reasons,
            )


# ---------------------------------------------------------------------------
# synthetic CRL populations
# ---------------------------------------------------------------------------

_SYNTH_WINDOW_START = datetime.date(2013, 1, 1)


def populate_brand_synthetic(calibration: Calibration, state: BrandState) -> None:
    """Fill each CRL up to its size target with never-observed entries:
    individually identified entries on small (CRLSet-eligible) CRLs, bulk
    :class:`HiddenPopulation` counts on big ones.  One substream per CRL,
    so even CRLs within a brand are order-independent.

    Every CRL is assigned its entries as columns: the observed leaf
    revocations (encoded in one batch per brand, in CRL order, then
    revocation order), then the synthetic entries, drawn straight into
    columns."""
    cal = calibration
    profile = state.profile
    reasons = _reason_mix(cal)
    random_long = profile.serial_style == "random_long"
    end = cal.measurement_end.toordinal()
    by_crl = [state.observed_entries.pop(crl.url, []) for crl in state.crls]
    observed = EntryColumns.encode([entry for entries in by_crl for entry in entries])
    stop = 0
    for local_index, (crl, entries) in enumerate(zip(state.crls, by_crl)):
        start, stop = stop, stop + len(entries)
        columns = observed[start:stop]
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
                    state.layout.crl_base + local_index
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
    end).  Serials are random 160-bit draws, or consecutive from
    ``serial_band`` when it is given; ``reasons`` draws column codes.

    Draw order: per initial entry its revocation offset, reason roll and
    serial; per added entry (in day order) its reason roll and serial;
    per survivor (in FIFO order) its expiry offset.  Removals draw
    nothing, so the entries are drawn first and their expiries fixed
    afterwards.  Only the draws run entry by entry; the rest are vector
    operations on day ordinals.
    """
    randint, random = rng.randint, rng.random
    next_serial = (
        partial(rng.getrandbits, 160)
        if serial_band is None
        else itertools.count(serial_band).__next__
    )
    start = _SYNTH_WINDOW_START.toordinal()
    initial = [
        (randint(1, 500), random(), next_serial())
        for _ in range(schedule.initial_count)
    ]
    # (day ordinal, additions, removals) per active schedule day.
    active = schedule.active_days()
    days, additions, removals = np.array(
        [(day.toordinal(), added, removed) for day, added, removed in active],
        np.int64,
    ).reshape(-1, 3).T
    added = [(random(), next_serial()) for _ in range(int(additions.sum()))]

    # Rows in draw order, then in FIFO order: the initial entries oldest
    # first (those revoked on the same day keep draw order), then the
    # additions in day order.
    revoked = np.concatenate(
        [
            start - np.array([offset for offset, _, _ in initial], np.int64),
            np.repeat(days, additions),
        ]
    )
    count = len(initial)
    fifo = np.concatenate(
        [np.argsort(revoked[:count], kind="stable"), np.arange(count, len(revoked))]
    )
    revoked = revoked[fifo]
    rolls = np.array([roll for _, roll, _ in initial] + [roll for roll, _ in added])
    serials = [serial for _, _, serial in initial] + [serial for _, serial in added]

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
    expiry[gone:] = [end + randint(30, 700) for _ in range(len(revoked) - gone)]
    return EntryColumns(
        serial_blob(serials)[fifo],
        revoked.astype(np.int32),
        reasons.pick(rolls)[fifo].astype(np.int8),
        expiry.astype(np.int32),
        np.full(len(revoked), -1, np.int32),
    )


# ---------------------------------------------------------------------------
# whole-brand chain + merge-time stages
# ---------------------------------------------------------------------------


def build_brand(
    calibration: Calibration,
    profile: CaProfile,
    layout: BrandLayout,
    root_ca: CertificateAuthority | None = None,
) -> tuple[BrandState, list[LeafRecord]]:
    """The full per-brand chain: scaffold -> leaves -> revocations ->
    synthetic population.  Pure in ``(calibration, profile, layout)``;
    ``root_ca`` is itself seed-derived and rebuilt when not passed (the
    worker path)."""
    if root_ca is None:
        root_ca = build_root_ca(calibration, profile)
    state = build_brand_scaffold(calibration, profile, layout, root_ca)
    leaves = build_brand_leaves(calibration, state)
    assign_brand_revocations(calibration, state, leaves)
    populate_brand_synthetic(calibration, state)
    return state, leaves


def assign_alexa_ranks(calibration: Calibration, leaves: list[LeafRecord]) -> None:
    """Merge-time global stage: one ``"alexa"`` substream over the merged
    Leaf Set (rank assignment must see every brand)."""
    cal = calibration
    rng = substream(cal.seed, "alexa")
    top_n = cal.scaled(1_000_000)
    # Popular sites are alive near the end of the study and skew toward
    # the big commercial CAs; sample among late-alive leaves.
    cutoff = cal.measurement_end - datetime.timedelta(days=270)
    candidates = [leaf for leaf in leaves if leaf.death >= cutoff]
    rng.shuffle(candidates)
    for rank, leaf in enumerate(candidates[:top_n], start=1):
        leaf.alexa_rank = rank


def _shard_layouts(
    calibration: Calibration,
    profiles: tuple[CaProfile, ...],
    brand_names: tuple[str, ...],
) -> list[tuple[CaProfile, BrandLayout]]:
    layouts = {layout.name: layout for layout in layout_brands(calibration, profiles)}
    by_name = {profile.name: profile for profile in profiles}
    return [(by_name[name], layouts[name]) for name in brand_names]


@gc_paused()
def build_shard_parts(
    calibration: Calibration,
    brand_names: tuple[str, ...],
    profiles: tuple[CaProfile, ...] = PAPER_CA_PROFILES,
) -> dict[str, dict]:
    """Worker entry point: build every brand in ``brand_names`` and return
    columnar parts (cheap to pickle back to the parent -- record objects
    are 40x bigger on the wire)."""
    parts: dict[str, dict] = {}
    for profile, layout in _shard_layouts(calibration, profiles, brand_names):
        state, leaves = build_brand(calibration, profile, layout)
        parts[profile.name] = encode_brand_parts(state, leaves)
    return parts
