"""The day-by-day CRLSet sweep, kept as a test oracle.

:class:`repro.crlset.builder.CrlSetBuilder` computes the CRLSet history
with vector operations over the entry columns.  This module walks the
same rules one day at a time over the entry records, with explicit
per-CRL active sets, and rebuilds the member set in full on every build
day.  ``test_builder_analyses.py`` checks that both agree on every field
of the history.

Each ``(parent, serial)`` key must be listed once (the builder raises
otherwise); the oracle assumes it.
"""

from __future__ import annotations

import datetime
import hashlib
from dataclasses import dataclass

from repro.crlset.format import serial_length, serial_to_bytes
from repro.revocation.reason import is_crlset_eligible

_DAY = datetime.timedelta(days=1)


@dataclass
class ReferenceHistory:
    daily_entry_counts: dict[datetime.date, int]
    daily_additions: dict[datetime.date, int]
    daily_removals: dict[datetime.date, int]
    #: per covered entry, in entry order: (parent, serial, crl_url,
    #: revoked_at, cert_not_after, eligible, in_partial_subset,
    #: first_appeared, removed_at).
    lifecycles: list[tuple]
    final_parents: dict[bytes, frozenset[int]]
    covered_urls: frozenset[str]
    dropped_urls: frozenset[str]
    parents_ever: frozenset[bytes]
    #: build day -> candidate CRLs dropped to fit the size cap.
    cap_drops: dict[datetime.date, int]


class _Track:
    def __init__(self, crl, lag_days: int, fraction: float) -> None:
        self.crl = crl
        self.lag_days = lag_days
        self.fraction = fraction
        self.active: set[tuple[bytes, int]] = set()
        self.byte_size = 36  # parent hash + count
        self.parent_removed = False

    def crawled_entry_count(self, day: datetime.date) -> int:
        hidden = self.crl.hidden.count_at(day) if self.crl.hidden is not None else 0
        return len(self.active) + hidden


def _crawl_lag_days(calibration, url: str) -> int:
    low, high = calibration.crlset_crawl_period_hours
    digest = hashlib.sha256(url.encode()).digest()
    hours = low + digest[0] % (high - low + 1)
    return max(0, (hours + 12) // 24)


def _partial_fraction(calibration, url: str) -> float:
    digest = hashlib.sha256(b"partial" + url.encode()).digest()
    if digest[0] / 255.0 >= calibration.crlset_partial_coverage_fraction:
        return 1.0
    low, high = calibration.crlset_partial_coverage_range
    return low + (digest[1] / 255.0) * (high - low)


def _in_partial_subset(serial: int, fraction: float) -> bool:
    if fraction >= 1.0:
        return True
    digest = hashlib.sha256(b"subset" + serial_to_bytes(serial)).digest()
    return digest[0] / 256.0 < fraction


def reference_sweep(
    ecosystem,
    removal_brand: str = "VerisignEV",
    apply_reason_filter: bool = True,
    max_entries_override: int | None = None,
    size_cap_override: int | None = None,
) -> ReferenceHistory:
    cal = ecosystem.calibration
    max_entries = (
        max_entries_override
        if max_entries_override is not None
        else cal.crlset_max_entries_per_crl
    )
    size_cap = (
        size_cap_override if size_cap_override is not None else cal.crlset_size_cap_bytes
    )
    start, end = cal.crlset_build_start, cal.measurement_end
    first, last = start.toordinal(), end.toordinal()

    tracks: dict[str, _Track] = {}
    states: dict[tuple[bytes, int], list] = {}
    adds: dict[int, list] = {}
    removes: dict[int, list] = {}
    for crl in ecosystem.crls:
        if not crl.covered:
            continue
        track = _Track(
            crl, _crawl_lag_days(cal, crl.url), _partial_fraction(cal, crl.url)
        )
        tracks[crl.url] = track
        parent = crl.issuer_key_hash
        for entry in crl.entries.decode():
            serial = entry.serial_number
            key = (parent, serial)
            eligible = not apply_reason_filter or is_crlset_eligible(entry.reason)
            in_subset = _in_partial_subset(serial, track.fraction)
            # [fields..., first_appeared, removed_at]
            states[key] = [
                parent,
                serial,
                crl.url,
                entry.revoked_at,
                entry.cert_not_after,
                eligible,
                in_subset,
                None,
                None,
            ]
            if not eligible or not in_subset:
                continue
            add_day = max(entry.revoked_at.toordinal() + track.lag_days, first)
            remove_day = entry.cert_not_after.toordinal() + 1
            if add_day <= last and remove_day > add_day:
                event = (track, key, 1 + serial_length(serial))
                adds.setdefault(add_day, []).append(event)
                if remove_day <= last:
                    removes.setdefault(remove_day, []).append(event)

    members: set[tuple[bytes, int]] = set()
    counts: dict[datetime.date, int] = {}
    additions: dict[datetime.date, int] = {}
    removals: dict[datetime.date, int] = {}
    dropped: set[str] = set()
    parents_ever: set[bytes] = set()
    cap_drops: dict[datetime.date, int] = {}
    day = start
    removal_applied = False
    while day <= end:
        added = removed = 0
        for track, key, size in adds.get(day.toordinal(), ()):
            track.active.add(key)
            track.byte_size += size
        for track, key, size in removes.get(day.toordinal(), ()):
            track.active.discard(key)
            track.byte_size -= size
        if not removal_applied and day >= cal.crlset_parent_removal_date:
            for track in tracks.values():
                if track.crl.brand == removal_brand:
                    track.parent_removed = True
            removal_applied = True
        if not cal.crlset_gap_start <= day < cal.crlset_gap_end:
            candidates = [
                track
                for track in tracks.values()
                if not track.parent_removed
                and track.crawled_entry_count(day) <= max_entries
            ]
            candidates.sort(key=lambda track: len(track.active))
            total = sum(track.byte_size for track in candidates)
            drops = 0
            while candidates and total > size_cap - 64:
                total -= candidates.pop().byte_size
                drops += 1
            cap_drops[day] = drops
            included = {track.crl.url for track in candidates}
            new_members = set().union(*(tracks[url].active for url in included))
            for key in new_members - members:
                state = states[key]
                if state[7] is None:
                    state[7] = day
                state[8] = None
            for key in members - new_members:
                states[key][8] = day
            added = len(new_members - members)
            removed = len(members - new_members)
            members = new_members
            for track in tracks.values():
                if track.crl.url in included:
                    parents_ever.add(track.crl.issuer_key_hash)
                elif track.crawled_entry_count(day) > max_entries:
                    dropped.add(track.crl.url)
        counts[day] = len(members)
        additions[day] = added
        removals[day] = removed
        day += _DAY

    final: dict[bytes, set[int]] = {}
    for parent, serial in members:
        final.setdefault(parent, set()).add(serial)
    return ReferenceHistory(
        daily_entry_counts=counts,
        daily_additions=additions,
        daily_removals=removals,
        lifecycles=[tuple(state) for state in states.values()],
        final_parents={parent: frozenset(s) for parent, s in final.items()},
        covered_urls=frozenset(tracks),
        dropped_urls=frozenset(dropped),
        parents_ever=frozenset(parents_ever),
        cap_drops=cap_drops,
    )
