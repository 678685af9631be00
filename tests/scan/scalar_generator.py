"""The scalar leaf loop and revocation pass that the column generator
replaced: one ``random.Random`` call per value, branching as it draws.

:func:`scalar_leaves` draws one brand's Leaf Set slice from the same
``("leaves", brand, block)`` substreams and :func:`scalar_revocations`
revokes its rows from the ``("revoke", brand)`` substream, as
:mod:`repro.scan.shardgen` did before it drew whole columns.  The draws
differ, so the corpora differ; the distributions do not.
``test_generation_distribution.py`` compares the two generators'
marginals.  Not a test module: pytest does not collect it.
"""

from __future__ import annotations

import bisect
from functools import partial

import numpy as np

from repro.scan.calibration import Calibration
from repro.scan.corpus import LeafColumns, serial_blob
from repro.scan.shardgen import (
    LEAF_BLOCK,
    BrandState,
    _issue_distribution,
    _Mix,
    _reason_mix,
)
from repro.scan.streams import substream


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


def scalar_leaves(calibration: Calibration, state: BrandState) -> LeafColumns:
    """The brand's leaf columns, one leaf and one draw at a time: per
    leaf the issue date and validity (up to 40 tries), the birth lag,
    the death, the intermediate, the serial, the CRL pointer, the OCSP
    pointer, EV, the server count and the stapling servers."""
    cal = calibration
    profile = state.profile
    layout = state.layout
    months, cum_weights, total_weight = _issue_distribution(cal)
    month_day0 = [month.toordinal() - 1 for month in months]
    validity_mix = _Mix(cal.validity_mix)
    server_count_mix = _Mix((entry, entry[-1]) for entry in cal.server_count_mix)
    scan_start, scan_end = cal.scan_start.toordinal(), cal.scan_end.toordinal()
    ocsp_since, ocsp_ramp = profile.ocsp_since.toordinal(), profile.ocsp_ramp_days
    count = layout.cert_count
    n_intermediates = len(state.intermediate_cas)
    intermediate_ids = [
        record.intermediate_id for record in state.intermediate_records
    ]
    n_crls, crl_base = len(state.crls), layout.crl_base
    random_long = profile.serial_style == "random_long"
    issues, not_afters, births, deaths = [], [], [], []
    is_evs, server_counts, stapling, serials = [], [], [], []
    intermediates, crls, has_ocsps = [], [], []

    for block_start in range(0, count, LEAF_BLOCK):
        rng = substream(cal.seed, "leaves", profile.name, block_start // LEAF_BLOCK)
        random, randint, randrange = rng.random, rng.randint, rng.randrange
        for i in range(block_start, min(block_start + LEAF_BLOCK, count)):
            for _ in range(40):
                month = month_day0[
                    bisect.bisect_right(cum_weights, random() * total_weight)
                ]
                issue = month + randint(1, 28)
                validity = validity_mix.draw(rng)
                not_after = issue + validity
                if not_after >= scan_start and issue <= scan_end:
                    break
            else:
                issue, validity = scan_start, 365
                not_after = issue + validity
            birth = issue + randint(0, cal.birth_lag_max_days)
            if random() < cal.early_death_fraction:
                death = birth + randint(30, max(31, validity))
            elif random() < cal.advertise_past_expiry:
                death = not_after + randint(1, cal.expiry_overrun_max_days)
            else:
                death = not_after - randint(0, 21)
            death = max(death, birth)

            intermediate_index = randrange(n_intermediates)
            serial = rng.getrandbits(160) if random_long else 1000 + i

            crl = -1
            if n_crls and random() < profile.crl_inclusion:
                crl = crl_base + randrange(n_crls)

            adoption = ocsp_since
            if ocsp_ramp:
                adoption += randint(0, ocsp_ramp)
            has_ocsp = (
                issue >= adoption and random() < cal.ocsp_inclusion_after_adoption
            )

            is_ev = random() < profile.ev_fraction
            low, high, _ = server_count_mix.draw(rng)
            server_count = randint(low, high)

            issues.append(issue)
            not_afters.append(not_after)
            births.append(birth)
            deaths.append(death)
            is_evs.append(is_ev)
            server_counts.append(server_count)
            stapling.append(_draw_stapling(rng, cal, server_count, is_ev))
            serials.append(serial)
            intermediates.append(intermediate_ids[intermediate_index])
            crls.append(crl)
            has_ocsps.append(has_ocsp)

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


def _weighted_sample(rng, items: list, weights: list, k: int) -> list:
    """Weighted sampling without replacement (Efraimidis-Spirakis)."""
    keyed = [
        (rng.random() ** (1.0 / weight), item)
        for item, weight in zip(items, weights)
    ]
    keyed.sort(reverse=True)
    return [item for _, item in keyed[:k]]


def scalar_revocations(
    calibration: Calibration, state: BrandState, leaves: LeafColumns
) -> None:
    """Steady churn (``rng.sample``) and the Heartbleed burst (weighted
    keys, ``expovariate`` offsets) over the brand's leaf columns, one
    revocation at a time; fills in ``revoked``, ``reason`` and
    ``death``."""
    cal = calibration
    profile = state.profile
    target = profile.scaled_revoked(cal.scale)
    count = len(leaves)
    if not count or target == 0:
        return
    rng = substream(cal.seed, "revoke", profile.name)
    reasons = _reason_mix(cal)
    not_before, not_after, birth, death = (
        getattr(leaves, name).tolist()
        for name in ("not_before", "not_after", "birth", "death")
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
            takedown = when + rng.randint(-14, 3)
            death[index] = max(birth[index], min(death[index], takedown))

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
        weights = [
            max(1.0, not_after[index] - heartbleed) ** 0.75 for index in eligible
        ]
        take = min(remaining, len(eligible))
        for index in _weighted_sample(rng, eligible, weights, take):
            offset = min(
                int(rng.expovariate(1.0 / cal.heartbleed_decay_days)),
                cal.heartbleed_window_days,
            )
            revoke(index, min(heartbleed + offset, not_after[index]))
            revoked.add(index)

        leftovers = [i for i in range(count) if i not in revoked]
        for index in leftovers[: max(0, target - len(revoked))]:
            revoke(index, steady_date(index))

    leaves.revoked[:] = revoked_on
    leaves.reason[:] = reason
    leaves.death[:] = death
