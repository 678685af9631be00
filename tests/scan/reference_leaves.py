"""Reference leaf generation: the record-building generator that predates
the columnar one.

:func:`leaf_records` draws one brand's Leaf Set slice as
:class:`~repro.scan.records.LeafRecord` objects, :func:`revoke_records`
assigns the brand's revocations to them in place and returns the
observed CRL entries per CRL URL, and :func:`alexa_records` ranks the
merged records, all the way :mod:`repro.scan.shardgen` did before it
drew straight into leaf columns.  :func:`encode_leaves` is the record
encoder the corpus codec used.  ``test_columnar_corpus.py`` checks that
the columns equal the encoding of these records and that both leave the
RNG in the same state.  Not a test module: pytest does not collect it.
"""

from __future__ import annotations

import bisect
import datetime

import numpy as np

from repro.revocation.reason import ReasonCode
from repro.scan.bulk import DayInterner
from repro.scan.calibration import Calibration
from repro.scan.corpus import CrlEntryRecord, LeafColumns, serial_blob
from repro.scan.records import LeafRecord
from repro.scan.shardgen import (
    LEAF_BLOCK,
    BrandState,
    _draw_stapling,
    _issue_distribution,
    _Mix,
    _reason_mix,
    _weighted_sample,
)
from repro.scan.streams import substream


def _ordinals(days) -> np.ndarray:
    return np.array([0 if day is None else day.toordinal() for day in days], np.int32)


def encode_leaves(
    leaves: list[LeafRecord], crl_index_of_url: dict[str, int] | None = None
) -> LeafColumns:
    """The leaf columns that encode ``leaves``; ``leaf_crl`` holds each
    CRL URL's index in ``crl_index_of_url``."""
    crl_index_of_url = crl_index_of_url or {}
    return LeafColumns(
        _ordinals([leaf.not_before for leaf in leaves]),
        _ordinals([leaf.not_after for leaf in leaves]),
        _ordinals([leaf.birth for leaf in leaves]),
        _ordinals([leaf.death for leaf in leaves]),
        _ordinals([leaf.revoked_at for leaf in leaves]),
        np.array(
            [
                -1 if leaf.revocation_reason is None else int(leaf.revocation_reason)
                for leaf in leaves
            ],
            np.int8,
        ),
        np.array([leaf.is_ev for leaf in leaves], np.uint8),
        np.array([leaf.server_count for leaf in leaves], np.int32),
        np.array([leaf.stapling_servers for leaf in leaves], np.int32),
        np.array([leaf.alexa_rank or 0 for leaf in leaves], np.int32),
        serial_blob([leaf.serial_number for leaf in leaves]),
        np.array([leaf.intermediate_id for leaf in leaves], np.int32),
        np.array(
            [
                -1 if leaf.crl_url is None else crl_index_of_url[leaf.crl_url]
                for leaf in leaves
            ],
            np.int32,
        ),
        np.array([leaf.ocsp_url is not None for leaf in leaves], np.uint8),
    )


def leaf_records(calibration: Calibration, state: BrandState) -> list[LeafRecord]:
    """The brand's Leaf Set slice, in cert_id order, one record per leaf
    (CRL assigned counts are not touched)."""
    cal = calibration
    profile = state.profile
    layout = state.layout
    months, cum_weights, total_weight = _issue_distribution(cal)
    month_day0 = [month.toordinal() - 1 for month in months]
    days = DayInterner()
    validity_mix = _Mix(cal.validity_mix)
    server_count_mix = _Mix((entry, entry[-1]) for entry in cal.server_count_mix)
    scan_start, scan_end = cal.scan_start.toordinal(), cal.scan_end.toordinal()
    ocsp_since, ocsp_ramp = profile.ocsp_since.toordinal(), profile.ocsp_ramp_days
    n_intermediates = len(state.intermediate_cas)
    intermediate_ids = [
        record.intermediate_id for record in state.intermediate_records
    ]
    crl_urls = [crl.url for crl in state.crls]
    random_long = profile.serial_style == "random_long"
    leaves: list[LeafRecord] = []

    for block_start in range(0, layout.cert_count, LEAF_BLOCK):
        rng = substream(cal.seed, "leaves", profile.name, block_start // LEAF_BLOCK)
        random, randint, randrange = rng.random, rng.randint, rng.randrange
        for i in range(block_start, min(block_start + LEAF_BLOCK, layout.cert_count)):
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

            crl_url = None
            if crl_urls and random() < profile.crl_inclusion:
                crl_url = crl_urls[randrange(len(crl_urls))]

            ocsp_url = None
            adoption = ocsp_since
            if ocsp_ramp:
                adoption += randint(0, ocsp_ramp)
            if issue >= adoption and random() < cal.ocsp_inclusion_after_adoption:
                ocsp_url = state.ocsp_urls[intermediate_index]

            is_ev = random() < profile.ev_fraction
            low, high, _ = server_count_mix.draw(rng)
            server_count = randint(low, high)
            stapling_servers = _draw_stapling(rng, cal, server_count, is_ev)

            leaves.append(
                LeafRecord(
                    cert_id=layout.cert_base + i,
                    brand=profile.name,
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
    return leaves


def _steady_revocation_date(rng, cal: Calibration, leaf: LeafRecord):
    start = leaf.not_before + datetime.timedelta(days=7)
    end = min(leaf.not_after, cal.measurement_end)
    if end <= start:
        return start
    return start + datetime.timedelta(days=rng.randint(0, (end - start).days))


def revoke_records(
    calibration: Calibration, state: BrandState, leaves: list[LeafRecord]
) -> dict[str, list[CrlEntryRecord]]:
    """Steady churn and the Heartbleed burst over the brand's records;
    returns each CRL URL's observed entries, in revocation order."""
    cal = calibration
    observed: dict[str, list[CrlEntryRecord]] = {}
    target = state.profile.scaled_revoked(cal.scale)
    if not leaves or target == 0:
        return observed
    rng = substream(cal.seed, "revoke", state.profile.name)
    reasons = _reason_mix(cal)

    def revoke(leaf: LeafRecord, when: datetime.date) -> None:
        leaf.revoked_at = when
        code = reasons.draw(rng)
        leaf.revocation_reason = None if code < 0 else ReasonCode(code)
        if rng.random() >= cal.keep_advertising_after_revoke:
            takedown = when + datetime.timedelta(days=rng.randint(-14, 3))
            leaf.death = max(leaf.birth, min(leaf.death, takedown))
        if leaf.crl_url is not None:
            observed.setdefault(leaf.crl_url, []).append(
                CrlEntryRecord(
                    serial_number=leaf.serial_number,
                    revoked_at=when,
                    reason=leaf.revocation_reason,
                    cert_not_after=leaf.not_after,
                    cert_id=leaf.cert_id,
                )
            )

    steady_p = min(cal.steady_cap, state.profile.revoked_fraction * cal.steady_share)
    steady_count = min(target, round(len(leaves) * steady_p))
    chosen = rng.sample(range(len(leaves)), min(len(leaves), steady_count))
    revoked: set[int] = set()
    for index in chosen:
        revoke(leaves[index], _steady_revocation_date(rng, cal, leaves[index]))
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
        weights = [
            max(1.0, (leaves[index].not_after - heartbleed).days) ** 0.75
            for index in eligible
        ]
        picked = _weighted_sample(rng, eligible, weights, min(remaining, len(eligible)))
        for index in picked:
            leaf = leaves[index]
            offset = min(
                int(rng.expovariate(1.0 / cal.heartbleed_decay_days)),
                cal.heartbleed_window_days,
            )
            when = min(heartbleed + datetime.timedelta(days=offset), leaf.not_after)
            revoke(leaf, when)
            revoked.add(index)

        leftovers = [i for i in range(len(leaves)) if i not in revoked]
        for index in leftovers[: max(0, target - len(revoked))]:
            revoke(leaves[index], _steady_revocation_date(rng, cal, leaves[index]))
    return observed


def alexa_records(calibration: Calibration, leaves: list[LeafRecord]) -> None:
    """Rank the merged records in place: one ``"alexa"`` substream."""
    rng = substream(calibration.seed, "alexa")
    top_n = calibration.scaled(1_000_000)
    cutoff = calibration.measurement_end - datetime.timedelta(days=270)
    candidates = [leaf for leaf in leaves if leaf.death >= cutoff]
    rng.shuffle(candidates)
    for rank, leaf in enumerate(candidates[:top_n], start=1):
        leaf.alexa_rank = rank
