"""Per-row oracle for a materialised CRL's synthetic entries.

:func:`synthetic_records` reads the CRL's substream in the word blocks
:func:`repro.scan.shardgen._synthetic_entries` documents -- the initial
entries' offsets, every entry's reason roll, every entry's serial words,
then the survivors' expiry offsets -- and builds the entries one at a
time in plain Python ints, with the FIFO removals walked day by day.
``test_columnar_corpus.py`` checks that the columns equal the encoding
of these records and that both leave the RNG in the same state.  Not a
test module: pytest does not collect it.
"""

from __future__ import annotations

from operator import itemgetter

from repro.revocation.reason import ReasonCode
from repro.scan.calibration import Calibration
from repro.scan.corpus import CrlEntryRecord, DayInterner
from repro.scan.hidden import HiddenPopulation
from repro.scan.shardgen import _SYNTH_WINDOW_START
from tests.scan.reference_leaves import WordReader, pick, reason_pairs


def synthetic_records(
    rng,
    cal: Calibration,
    schedule: HiddenPopulation,
    serial_band: int | None,
) -> list[CrlEntryRecord]:
    """The entries in FIFO order; serials are 160-bit draws, or
    consecutive from ``serial_band`` when it is given."""
    reader = WordReader(rng)
    days = DayInterner()
    start = _SYNTH_WINDOW_START.toordinal()
    active = list(zip(*(column.tolist() for column in schedule.active_days())))
    count = schedule.initial_count
    total = count + sum(added for _, added, _ in active)

    # (revoked_at, reason, serial) per entry, in draw order: the initial
    # entries, then the additions in day order.
    revoked = [start - 1 - offset for offset in reader.below([500] * count)]
    revoked += [day for day, added, _ in active for _ in range(added)]
    codes = [pick(reason_pairs(cal), roll) for roll in reader.uniforms(total)]
    if serial_band is None:
        serials = reader.serials(total)
    else:
        serials = list(range(serial_band, serial_band + total))
    drawn = list(zip(revoked, codes, serials))
    # The initial entries are listed oldest first; those revoked on the
    # same day keep draw order.
    fifo = sorted(drawn[:count], key=itemgetter(0)) + drawn[count:]

    # Removals take the oldest listed entries, which stop being listed
    # the day before (never before their own revocation day).
    expiry: list[int | None] = [None] * total
    cursor = 0
    listed = count
    for day, added, removed in active:
        listed += added
        stop = min(cursor + removed, listed)
        for i in range(cursor, stop):
            expiry[i] = max(fifo[i][0], day - 1)
        cursor = max(cursor, stop)
    # Survivors expire after the study window.
    end = cal.measurement_end.toordinal()
    for i, offset in zip(range(cursor, total), reader.below([671] * (total - cursor))):
        expiry[i] = end + 30 + offset
    return [
        CrlEntryRecord(
            serial,
            days[revoked_at],
            None if code < 0 else ReasonCode(code),
            days[expires],
        )
        for (revoked_at, code, serial), expires in zip(fifo, expiry)
    ]

