"""Per-row oracles for the column draws of leaf blocks, revocation passes
and the Alexa ranking.

Each oracle reads its unit's substream in the word blocks that
:mod:`repro.scan.shardgen` documents -- the same ``getrandbits`` calls,
in the same order -- and then builds the rows one at a time in plain
Python ints: :class:`WordReader` makes the uniforms of word pairs and
the bounded integers of the exact step, and every branch is an ``if``.
:func:`leaf_rows` draws one brand's Leaf Set slice, :func:`revoke_rows`
revokes its rows and returns the observed CRL entries per CRL, and
:func:`alexa_rows` ranks the merged Leaf Set.  :func:`encode_leaves` is
the record encoder the corpus codec used, for tests that build leaves as
records.
``test_columnar_corpus.py`` checks the generator's columns, each CRL's
observed entries and every substream's end state against them.  Not a
test module: pytest does not collect it.
"""

from __future__ import annotations

import bisect
import datetime
import math
import struct
from functools import partial

import numpy as np

from repro.revocation.reason import ReasonCode
from repro.scan.calibration import Calibration
from repro.scan.corpus import CrlEntryRecord, LeafColumns, serial_blob
from repro.scan.records import LeafRecord
from repro.scan.shardgen import (
    ISSUE_TRIES,
    LEAF_BLOCK,
    BrandState,
    _issue_distribution,
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


class WordReader:
    """One substream, read in word blocks and decoded in plain Python."""

    def __init__(self, rng) -> None:
        self.rng = rng

    def words(self, count: int) -> list[int]:
        """The next ``count`` 32-bit words: one ``getrandbits(32 *
        count)``, least significant word first."""
        block = self.rng.getrandbits(32 * count)
        return list(struct.unpack(f"<{count}I", block.to_bytes(4 * count, "little")))

    def uniforms(self, count: int) -> list[float]:
        """A float per word pair: 27 bits of the first word over 26 of
        the second."""
        pairs = self.words(2 * count)
        return [
            ((pairs[i] >> 5) * 67108864 + (pairs[i + 1] >> 6)) / 2**53
            for i in range(0, 2 * count, 2)
        ]

    def below(self, bounds: list[int]) -> list[int]:
        """An int below each bound: one word per try, its top
        ``(bound - 1).bit_length()`` bits; rejected rows take the next
        block's words in row order."""
        values: list[int | None] = [None] * len(bounds)
        pending = list(range(len(bounds)))
        while pending:
            rejected = []
            for row, word in zip(pending, self.words(len(pending))):
                value = word >> (32 - (bounds[row] - 1).bit_length())
                if value < bounds[row]:
                    values[row] = value
                else:
                    rejected.append(row)
            pending = rejected
        return values

    def serials(self, count: int) -> list[int]:
        """A 160-bit int per five words, the first least significant."""
        block = self.words(5 * count)
        return [
            sum(word << (32 * j) for j, word in enumerate(block[i : i + 5]))
            for i in range(0, 5 * count, 5)
        ]


def pick(pairs, roll: float):
    """The mixture value a roll picks: the first whose running total of
    probabilities exceeds the roll, else the last."""
    total = 0.0
    for value, probability in pairs:
        total += probability
        if roll < total:
            return value
    return value


def reason_pairs(cal: Calibration) -> list[tuple[int, float]]:
    """The reason mixture as the codec's reason codes (-1 = none)."""
    return [
        (-1 if name is None else int(ReasonCode[name]), probability)
        for name, probability in cal.reason_mix
    ]


def leaf_rows(calibration: Calibration, state: BrandState) -> LeafColumns:
    """The brand's leaf columns, built row by row from each block's
    documented column draws."""
    rows: list[tuple] = []
    count = state.layout.cert_count
    for start in range(0, count, LEAF_BLOCK):
        stop = min(start + LEAF_BLOCK, count)
        rows += _block_rows(calibration, state, start, stop)
    (
        not_before, not_after, birth, death, is_ev, servers, stapling,
        serials, intermediate, crl, has_ocsp,
    ) = map(list, zip(*rows))
    int32 = partial(np.array, dtype=np.int32)
    return LeafColumns(
        int32(not_before),
        int32(not_after),
        int32(birth),
        int32(death),
        np.zeros(count, np.int32),
        np.full(count, -1, np.int8),
        np.array(is_ev, np.uint8),
        int32(servers),
        int32(stapling),
        np.zeros(count, np.int32),
        serial_blob(serials),
        int32(intermediate),
        int32(crl),
        np.array(has_ocsp, np.uint8),
    )


def _block_rows(
    cal: Calibration, state: BrandState, start: int, stop: int
) -> list[tuple]:
    """(not_before, not_after, birth, death, is_ev, server_count,
    stapling, serial, intermediate, crl, has_ocsp) per leaf of a block."""
    profile = state.profile
    block = start // LEAF_BLOCK
    reader = WordReader(substream(cal.seed, "leaves", profile.name, block))
    n = stop - start
    months, cum_weights, total_weight = _issue_distribution(cal)
    month_day0 = [month.toordinal() - 1 for month in months]
    scan_start, scan_end = cal.scan_start.toordinal(), cal.scan_end.toordinal()

    issue, validity = [scan_start] * n, [365] * n
    pending = list(range(n))
    for _ in range(ISSUE_TRIES):
        if not pending:
            break
        month_rolls = reader.uniforms(len(pending))
        days = reader.below([28] * len(pending))
        validity_rolls = reader.uniforms(len(pending))
        still = []
        for row, month_roll, day, validity_roll in zip(
            pending, month_rolls, days, validity_rolls
        ):
            month = bisect.bisect_right(cum_weights, month_roll * total_weight)
            day += month_day0[month] + 1
            days_valid = pick(cal.validity_mix, validity_roll)
            if day + days_valid >= scan_start and day <= scan_end:
                issue[row], validity[row] = day, days_valid
            else:
                still.append(row)
        pending = still

    lags = reader.below([cal.birth_lag_max_days + 1] * n)
    early_rolls = reader.uniforms(n)
    past_rolls = reader.uniforms(n)
    spans = reader.below([max(31, days) - 29 for days in validity])
    overruns = reader.below([cal.expiry_overrun_max_days] * n)
    cuts = reader.below([22] * n)
    intermediates = reader.below([len(state.intermediate_cas)] * n)
    if profile.serial_style == "random_long":
        serials = reader.serials(n)
    else:
        serials = [1000 + start + i for i in range(n)]
    crls = len(state.crls)
    if crls:
        crl_rolls = reader.uniforms(n)
        crl_indexes = reader.below([crls] * n)
    ramp = profile.ocsp_ramp_days
    adoptions = reader.below([ramp + 1] * n) if ramp else [0] * n
    ocsp_rolls = reader.uniforms(n)
    ev_rolls = reader.uniforms(n)
    ranges = [
        pick([((low, high), p) for low, high, p in cal.server_count_mix], roll)
        for roll in reader.uniforms(n)
    ]
    servers = [
        low + value
        for (low, high), value in zip(
            ranges, reader.below([high - low + 1 for low, high in ranges])
        )
    ]
    staple_rolls = reader.uniforms(n)
    some = reader.below([max(1, count - 1) for count in servers])

    rows = []
    for i in range(n):
        not_after = issue[i] + validity[i]
        birth = issue[i] + lags[i]
        if early_rolls[i] < cal.early_death_fraction:
            death = birth + 30 + spans[i]
        elif past_rolls[i] < cal.advertise_past_expiry:
            death = not_after + 1 + overruns[i]
        else:
            death = not_after - cuts[i]
        crl = -1
        if crls and crl_rolls[i] < profile.crl_inclusion:
            crl = state.layout.crl_base + crl_indexes[i]
        adoption = profile.ocsp_since.toordinal() + adoptions[i]
        has_ocsp = issue[i] >= adoption and (
            ocsp_rolls[i] < cal.ocsp_inclusion_after_adoption
        )
        is_ev = ev_rolls[i] < profile.ev_fraction
        if is_ev:
            all_p, partial_p = (
                cal.ev_stapling_all_fraction,
                cal.ev_stapling_partial_fraction,
            )
        else:
            all_p, partial_p = cal.stapling_all_fraction, cal.stapling_partial_fraction
        if staple_rolls[i] < all_p:
            stapling = servers[i]
        elif staple_rolls[i] < all_p + partial_p and servers[i] > 1:
            stapling = 1 + some[i]
        else:
            stapling = 0
        rows.append(
            (
                issue[i],
                not_after,
                birth,
                max(death, birth),
                is_ev,
                servers[i],
                stapling,
                serials[i],
                state.intermediate_records[intermediates[i]].intermediate_id,
                crl,
                has_ocsp,
            )
        )
    return rows


def revoke_rows(
    calibration: Calibration, state: BrandState, leaves: LeafColumns
) -> dict[int, list[CrlEntryRecord]]:
    """Revoke the brand's rows of ``leaves`` in place from the pass's
    documented column draws; return each global CRL index's observed
    entries, in revocation order."""
    cal = calibration
    profile = state.profile
    observed: dict[int, list[CrlEntryRecord]] = {}
    target = profile.scaled_revoked(cal.scale)
    count = len(leaves)
    if not count or target == 0:
        return observed
    reader = WordReader(substream(cal.seed, "revoke", profile.name))
    not_before, not_after, birth, death, crl, serials = (
        leaves.not_before.tolist(),
        leaves.not_after.tolist(),
        leaves.birth.tolist(),
        leaves.death.tolist(),
        leaves.crl.tolist(),
        leaves.serial_numbers(),
    )
    revoked_on, reason = [0] * count, [-1] * count
    end = cal.measurement_end.toordinal()
    heartbleed = cal.heartbleed_date.toordinal()

    steady_p = min(cal.steady_cap, profile.revoked_fraction * cal.steady_share)
    steady_count = min(target, round(count * steady_p))
    keys = reader.words(count)
    steady = sorted(range(count), key=keys.__getitem__)[:steady_count]
    picked, offsets, shortfall = [], [], []
    remaining = target - steady_count
    if remaining:
        revoked = set(steady)
        eligible = [
            i
            for i in range(count)
            if i not in revoked
            and not_before[i] <= heartbleed <= not_after[i]
            and birth[i] <= heartbleed <= death[i]
        ]
        es_keys = [
            -math.log1p(-u) / max(1.0, not_after[i] - heartbleed) ** 0.75
            for i, u in zip(eligible, reader.uniforms(len(eligible)))
        ]
        order = sorted(range(len(eligible)), key=es_keys.__getitem__)
        picked = [eligible[k] for k in order[:remaining]]
        offsets = [
            min(
                math.floor(-math.log1p(-u) * cal.heartbleed_decay_days),
                cal.heartbleed_window_days,
            )
            for u in reader.uniforms(len(picked))
        ]
        revoked.update(picked)
        never = [i for i in range(count) if i not in revoked]
        shortfall = never[: remaining - len(picked)]
    rows = steady + picked + shortfall

    spans = reader.below(
        [max(1, min(not_after[i], end) - (not_before[i] + 7) + 1) for i in rows]
    )
    reason_rolls = reader.uniforms(len(rows))
    keep_rolls = reader.uniforms(len(rows))
    takedowns = reader.below([18] * len(rows))
    codes = reason_pairs(cal)
    for k, i in enumerate(rows):
        if steady_count <= k < steady_count + len(picked):
            when = min(heartbleed + offsets[k - steady_count], not_after[i])
        else:
            when = not_before[i] + 7 + spans[k]
        revoked_on[i] = when
        reason[i] = pick(codes, reason_rolls[k])
        if keep_rolls[k] >= cal.keep_advertising_after_revoke:
            death[i] = max(birth[i], min(death[i], when - 14 + takedowns[k]))
        if crl[i] >= 0:
            observed.setdefault(crl[i], []).append(
                CrlEntryRecord(
                    serial_number=serials[i],
                    revoked_at=datetime.date.fromordinal(when),
                    reason=None if reason[i] < 0 else ReasonCode(reason[i]),
                    cert_not_after=datetime.date.fromordinal(not_after[i]),
                    cert_id=state.layout.cert_base + i,
                )
            )
    leaves.revoked[:] = revoked_on
    leaves.reason[:] = reason
    leaves.death[:] = death
    return observed


def alexa_rows(calibration: Calibration, death: list[int]) -> list[int]:
    """The merged Leaf Set's ranks (0 = unranked) from the ``"alexa"``
    substream: a word per late-alive leaf, ranked in key order."""
    reader = WordReader(substream(calibration.seed, "alexa"))
    cutoff = (calibration.measurement_end - datetime.timedelta(days=270)).toordinal()
    candidates = [i for i, day in enumerate(death) if day >= cutoff]
    keys = reader.words(len(candidates))
    order = sorted(range(len(candidates)), key=keys.__getitem__)
    ranks = [0] * len(death)
    for rank, k in enumerate(order[: calibration.scaled(1_000_000)], start=1):
        ranks[candidates[k]] = rank
    return ranks
