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

Generation draws straight into the corpus codec's columns: each brand's
leaves into a :class:`~repro.scan.corpus.LeafColumns` (day ordinals and
ints, no record), its CRL entries into
:class:`~repro.scan.corpus.EntryColumns`.  Leaves draw one call at a
time, since each leaf's draws branch on the ones before; a materialised
CRL's synthetic entries make a fixed pattern of draws, so they are
drawn in blocks of their substream's 32-bit words and decoded with
numpy, the same draws in the same order (:mod:`repro.scan.streams`).

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
from functools import partial
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
    serial_blob,
)
from repro.scan.crl_model import EcosystemCrl
from repro.scan.hidden import HiddenPopulation
from repro.scan.records import IntermediateRecord
from repro.scan.streams import (
    led_records,
    random_pairs,
    randrange_run,
    substream,
    words,
)

__all__ = [
    "BrandLayout",
    "BrandState",
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
        #: global CRL index -> the brand's leaf rows revoked on it, in
        #: revocation order, until :func:`populate_brand_synthetic`
        #: lists them as the CRLs' observed entries.
        self.revoked_rows: dict[int, list[int]] = {}


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


def build_brand_leaves(calibration: Calibration, state: BrandState) -> LeafColumns:
    """The brand's Leaf Set slice as leaf columns, in cert_id order: no
    leaf revoked yet (``revoked`` 0, ``reason`` -1) and none ranked
    (``alexa`` 0).

    Each :data:`LEAF_BLOCK`-sized block draws from its own substream, so
    any block -- hence any brand, hence any shard -- can be generated
    independently and still merge byte-identically.

    Per leaf, in draw order: the issue date and validity (rejection-
    sampled until the certificate overlaps the scan window: the Leaf Set
    is, by definition, what the scans observed), the first-advertised
    lag, the death, the issuing intermediate, the serial, the CRL
    pointer, the OCSP pointer, EV, the server count and the stapling
    servers.  Days are ordinals and every value a plain int, appended to
    one list per column; the arrays are built from the lists in one go.
    """
    cal = calibration
    profile = state.profile
    layout = state.layout
    months, cum_weights, total_weight = _issue_distribution(cal)
    # Day d of a month is its "day 0" ordinal plus d.
    month_day0 = [month.toordinal() - 1 for month in months]
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
    n_crls, crl_base = len(state.crls), layout.crl_base
    random_long = profile.serial_style == "random_long"
    crl_assigned = [0] * n_crls
    # One list per column: appending ints allocates no container, so the
    # cyclic collector never walks the rows.
    issues, not_afters, births, deaths = [], [], [], []
    is_evs, server_counts, stapling, serials = [], [], [], []
    intermediates, crls, has_ocsps = [], [], []
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

            crl = -1
            if n_crls and random() < crl_inclusion:
                crl_index = randrange(n_crls)
                crl_assigned[crl_index] += 1
                crl = crl_base + crl_index

            adoption = ocsp_since
            if ocsp_ramp:
                adoption += randint(0, ocsp_ramp)
            has_ocsp = issue >= adoption and random() < ocsp_inclusion

            is_ev = random() < ev_fraction
            low, high, _ = server_count_mix.draw(rng)
            server_count = randint(low, high)
            stapling_servers = _draw_stapling(rng, cal, server_count, is_ev)

            issues.append(issue)
            not_afters.append(not_after)
            births.append(birth)
            deaths.append(death)
            is_evs.append(is_ev)
            server_counts.append(server_count)
            stapling.append(stapling_servers)
            serials.append(serial)
            intermediates.append(intermediate_ids[intermediate_index])
            crls.append(crl)
            has_ocsps.append(has_ocsp)

    for crl_model, assigned in zip(state.crls, crl_assigned):
        crl_model.assigned_cert_count += assigned
    int32 = partial(np.array, dtype=np.int32)
    return LeafColumns(
        int32(issues),
        int32(not_afters),
        int32(births),
        int32(deaths),
        np.zeros(count, np.int32),
        np.full(count, -1, np.int8),
        np.array(is_evs, np.uint8),
        int32(server_counts),
        int32(stapling),
        np.zeros(count, np.int32),
        serial_blob(serials),
        int32(intermediates),
        int32(crls),
        np.array(has_ocsps, np.uint8),
    )


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


def assign_brand_revocations(
    calibration: Calibration, state: BrandState, leaves: LeafColumns
) -> None:
    """Steady-state churn + the Heartbleed burst, one substream per brand.

    Fills in the brand's ``revoked``, ``reason`` and ``death`` columns
    and records each CRL's revoked rows, in revocation order, in
    ``state.revoked_rows``; depends only on this brand's own leaves.
    The columns are read as Python ints, so all day arithmetic is on
    plain ordinals and the Heartbleed weights are the same floats as
    ``max(1.0, days) ** 0.75`` over ``timedelta.days``.
    """
    cal = calibration
    profile = state.profile
    target = profile.scaled_revoked(cal.scale)
    count = len(leaves)
    if not count or target == 0:
        return
    rng = substream(cal.seed, "revoke", profile.name)
    reasons = _reason_mix(cal)
    not_before, not_after, birth, death, crl = (
        getattr(leaves, name).tolist()
        for name in ("not_before", "not_after", "birth", "death", "crl")
    )
    revoked_on, reason = [0] * count, [-1] * count
    end = cal.measurement_end.toordinal()

    def steady_date(index: int) -> int:
        start = not_before[index] + 7
        last = min(not_after[index], end)
        if last <= start:
            return start
        return start + rng.randint(0, last - start)

    def revoke(index: int, when: int) -> None:
        revoked_on[index] = when
        reason[index] = reasons.draw(rng)
        if rng.random() >= cal.keep_advertising_after_revoke:
            # Most administrators deploy the replacement certificate right
            # around the revocation (often just before requesting it).
            takedown = when + rng.randint(-14, 3)
            death[index] = max(birth[index], min(death[index], takedown))
        if crl[index] >= 0:
            state.revoked_rows.setdefault(crl[index], []).append(index)

    steady_p = min(cal.steady_cap, profile.revoked_fraction * cal.steady_share)
    steady_count = min(target, round(count * steady_p))
    chosen = rng.sample(range(count), min(count, steady_count))
    revoked: set[int] = set()
    for index in chosen:
        revoke(index, steady_date(index))
        revoked.add(index)

    remaining = target - len(revoked)
    if remaining > 0:
        heartbleed = cal.heartbleed_date.toordinal()
        eligible = [
            index
            for index in range(count)
            if index not in revoked
            and not_before[index] <= heartbleed <= not_after[index]
            and birth[index] <= heartbleed <= death[index]
        ]
        # Bias toward certificates with more remaining validity: a
        # revocation is only worth requesting if the certificate would
        # otherwise stay valid for a while (cf. [52]).
        weights = [
            max(1.0, not_after[index] - heartbleed) ** 0.75 for index in eligible
        ]
        take = min(remaining, len(eligible))
        picked = _weighted_sample(rng, eligible, weights, take)
        for index in picked:
            offset = min(
                int(rng.expovariate(1.0 / cal.heartbleed_decay_days)),
                cal.heartbleed_window_days,
            )
            revoke(index, min(heartbleed + offset, not_after[index]))
            revoked.add(index)

        # Any shortfall (tiny corpora) becomes late steady churn.
        leftovers = [i for i in range(count) if i not in revoked]
        for index in leftovers[: max(0, target - len(revoked))]:
            revoke(index, steady_date(index))

    leaves.revoked[:] = revoked_on
    leaves.reason[:] = reason
    leaves.death[:] = death


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
    by_crl = [
        state.revoked_rows.pop(layout.crl_base + index, [])
        for index in range(len(state.crls))
    ]
    rows = np.array([row for rows in by_crl for row in rows], np.intp)
    observed = EntryColumns(
        leaves.serial[rows],
        leaves.revoked[rows],
        leaves.reason[rows],
        leaves.not_after[rows],
        (layout.cert_base + rows).astype(np.int32),
    )
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
    end).  Serials are random 160-bit draws, or consecutive from
    ``serial_band`` when it is given; ``reasons`` draws column codes.

    Draw order: per initial entry its revocation offset
    (``randint(1, 500)``), reason roll (``random()``) and serial
    (``getrandbits(160)``); per added entry (in day order) its reason
    roll and serial; per survivor (in FIFO order) its expiry offset
    (``randint(30, 700)``).  Removals draw nothing, so the entries are
    drawn first and their expiries fixed afterwards.  Each of the three
    runs is drawn as blocks of the stream's 32-bit words and decoded
    with numpy, word for word as those calls would draw
    (:mod:`repro.scan.streams`); the rest are vector operations on day
    ordinals.
    """
    # Words per entry after its offset: the roll's pair, then the serial's five.
    width = 7 if serial_band is None else 2
    start = _SYNTH_WINDOW_START.toordinal()
    offsets, initial = led_records(rng, 500, schedule.initial_count, width)
    days, additions, removals = schedule.active_days()
    added = words(rng, int(additions.sum()) * width).reshape(-1, width)
    drawn = np.concatenate([initial, added])

    # Rows in draw order, then in FIFO order: the initial entries oldest
    # first (those revoked on the same day keep draw order), then the
    # additions in day order.
    revoked = np.concatenate([start - 1 - offsets, np.repeat(days, additions)])
    count = len(offsets)
    fifo = np.concatenate(
        [np.argsort(revoked[:count], kind="stable"), np.arange(count, len(revoked))]
    )
    revoked = revoked[fifo]
    rolls = random_pairs(drawn[:, 0], drawn[:, 1])
    serials = _synthetic_serials(drawn, serial_band)

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
    expiry[gone:] = end + 30 + randrange_run(rng, 671, len(revoked) - gone)
    return EntryColumns(
        serials[fifo],
        revoked.astype(np.int32),
        reasons.pick(rolls)[fifo].astype(np.int8),
        expiry.astype(np.int32),
        np.full(len(revoked), -1, np.int32),
    )


def _synthetic_serials(drawn: np.ndarray, serial_band: int | None) -> np.ndarray:
    """:func:`serial_blob` of the entries' serials, in draw order: the
    ``getrandbits(160)`` of each row's words after its roll (five words,
    the first drawn least significant), or consecutive ints from
    ``serial_band``."""
    if serial_band is None:
        serial_bytes = drawn[:, 2:][:, ::-1].astype(">u4")
    else:
        band = np.arange(serial_band, serial_band + len(drawn), dtype=">u8")
        serial_bytes = band[:, None]
    serial_bytes = serial_bytes.view(np.uint8)
    blob = np.zeros((len(drawn), 21), np.uint8)
    blob[:, 21 - serial_bytes.shape[1] :] = serial_bytes
    return blob


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
    brand).  A new array, so the ranks never write into the columns."""
    cal = calibration
    rng = substream(cal.seed, "alexa")
    top_n = cal.scaled(1_000_000)
    # Popular sites are alive near the end of the study and skew toward
    # the big commercial CAs; sample among late-alive leaves.
    cutoff = cal.measurement_end - datetime.timedelta(days=270)
    candidates = np.flatnonzero(leaves.death >= cutoff.toordinal()).tolist()
    # Random.shuffle permutes by the list's length alone, so shuffling
    # row indexes ranks the same rows as shuffling the leaves would.
    rng.shuffle(candidates)
    ranked = candidates[:top_n]
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
