"""Helpers for the bulk record phases.

The corpus itself holds no records: generation draws it into the codec's
columns and the store load attaches them (:mod:`repro.scan.corpus`).
Records are built in bulk only as copies -- the CRLSet entry histories
(hundreds of thousands of small, long-lived ``EntryHistory`` records in
one go) and the decoders of leaf and entry columns.  Two things keep
that cheap:

- :func:`gc_paused` switches the cyclic garbage collector off for the
  entry-history phase.  None of these records form reference cycles,
  but every one counts towards the collector's thresholds, so with the
  collector on it keeps re-walking young generations that only ever
  survive (docs/PERFORMANCE.md has the measured share).  Reference
  counting still frees every temporary during the pause; anything
  cyclic waits for the first collection after it.
- :class:`DayInterner` hands out one shared ``datetime.date`` per day.
  A corpus spans a few thousand distinct days, so decoded records share
  date objects instead of holding a copy per field per record.
"""

from __future__ import annotations

import contextlib
import datetime
import gc

__all__ = ["DayInterner", "gc_paused"]


@contextlib.contextmanager
def gc_paused():
    """Disable the cyclic collector for the ``with`` block (or decorated
    call), then restore the caller's state: a collector the caller had
    already disabled stays disabled, so pauses nest."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class DayInterner(dict):
    """``interner[ordinal]`` is the date with that proleptic ordinal,
    built once and shared by every later lookup."""

    def __missing__(self, ordinal: int) -> datetime.date:
        day = self[ordinal] = datetime.date.fromordinal(ordinal)
        return day
