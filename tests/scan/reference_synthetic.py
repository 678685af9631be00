"""Reference synthetic CRL entries: the record-building generator that
predates the columnar one.

:func:`synthetic_records` draws one materialised CRL's synthetic entries
as :class:`~repro.scan.corpus.CrlEntryRecord` objects, entry by
entry, the way :func:`repro.scan.shardgen._synthetic_entries` did before
it drew straight into entry columns.  ``test_columnar_corpus.py`` checks
that the columns equal the encoding of these records and that both leave
the RNG in the same state.  Not a test module: pytest does not collect
it.
"""

from __future__ import annotations

import datetime
import itertools
from functools import partial
from operator import itemgetter

from repro.revocation.reason import ReasonCode
from repro.scan.calibration import Calibration
from repro.scan.corpus import CrlEntryRecord, DayInterner
from repro.scan.hidden import HiddenPopulation
from repro.scan.shardgen import _SYNTH_WINDOW_START, _Mix


def synthetic_records(
    rng,
    cal: Calibration,
    schedule: HiddenPopulation,
    serial_band: int | None,
) -> list[CrlEntryRecord]:
    """The entries in FIFO order, drawing reasons from the calibration's
    mixture as :class:`~repro.revocation.reason.ReasonCode` values."""
    days = DayInterner()
    reasons = _Mix(
        (None if name is None else ReasonCode[name], probability)
        for name, probability in cal.reason_mix
    )
    randint, draw_reason = rng.randint, reasons.draw
    next_serial = (
        partial(rng.getrandbits, 160)
        if serial_band is None
        else itertools.count(serial_band).__next__
    )
    start = _SYNTH_WINDOW_START.toordinal()
    # (revoked_at, reason, serial) per entry.  The initial entries are
    # listed oldest first; those revoked on the same day keep draw order.
    fifo = [
        (days[start - randint(1, 500)], draw_reason(rng), next_serial())
        for _ in range(schedule.initial_count)
    ]
    fifo.sort(key=itemgetter(0))
    # (day, additions, removals) per active schedule day.
    active = [
        (days[ordinal], added, removed)
        for ordinal, added, removed in zip(
            *(column.tolist() for column in schedule.active_days())
        )
    ]
    for day, added, _ in active:
        fifo.extend([(day, draw_reason(rng), next_serial()) for _ in range(added)])

    # Removals take the oldest listed entries, which stop being listed
    # the day before (never before their own revocation day).
    expiry: list[datetime.date | None] = [None] * len(fifo)
    cursor = 0
    listed = schedule.initial_count
    for day, added, removed in active:
        listed += added
        stop = min(cursor + removed, listed)
        if stop > cursor:
            last_listed = days[day.toordinal() - 1]
            for i in range(cursor, stop):
                expiry[i] = max(fifo[i][0], last_listed)
            cursor = stop
    # Survivors expire after the study window.
    end = cal.measurement_end.toordinal()
    for i in range(cursor, len(fifo)):
        expiry[i] = days[end + randint(30, 700)]
    return [
        CrlEntryRecord(serial, revoked_at, reason, expires)
        for (revoked_at, reason, serial), expires in zip(fifo, expiry)
    ]
