"""Certificate lifecycle classification (paper §3.3, Figure 1).

The paper defines two interleaved timelines per certificate -- *fresh*
(between the validity dates) and *alive* (advertised by hosts) -- and
sketches three shapes in Figure 1: the typical certificate (lifetime
inside the fresh period), the revoked certificate that stops being
advertised, and the atypical certificate still advertised after it was
revoked *and* expired (e.g. ``gamespace.adobe.com``, §4.1).

:func:`classify` names a leaf's shape; :func:`lifecycle_census` counts
them over an ecosystem; :func:`render_lifecycle` draws one certificate's
Figure 1-style timeline in ASCII.
"""

from __future__ import annotations

import datetime
import enum
from collections import Counter

from repro.scan.ecosystem import Ecosystem
from repro.scan.records import LeafRecord

__all__ = ["LifecycleShape", "classify", "lifecycle_census", "render_lifecycle"]


class LifecycleShape(enum.Enum):
    """Figure 1's certificate shapes."""

    TYPICAL = "typical"  # alive period inside the fresh period
    REVOKED_RETIRED = "revoked, then retired"
    REVOKED_STILL_ADVERTISED = "revoked but still advertised"
    EXPIRED_STILL_ADVERTISED = "expired but still advertised"
    #: the paper's gamespace.adobe.com case: revoked AND expired AND alive.
    ATYPICAL = "revoked and expired, still advertised"


def classify(leaf: LeafRecord, on: datetime.date) -> LifecycleShape:
    """Name the leaf's Figure 1 shape as observed on date ``on``."""
    alive = leaf.is_alive(on)
    expired = on > leaf.not_after
    revoked = leaf.is_revoked_by(on)
    if alive and revoked and expired:
        return LifecycleShape.ATYPICAL
    if alive and revoked:
        return LifecycleShape.REVOKED_STILL_ADVERTISED
    if alive and expired:
        return LifecycleShape.EXPIRED_STILL_ADVERTISED
    if revoked:
        return LifecycleShape.REVOKED_RETIRED
    return LifecycleShape.TYPICAL


def lifecycle_census(
    ecosystem: Ecosystem, on: datetime.date | None = None
) -> Counter:
    """Count Figure 1 shapes across the Leaf Set on date ``on``."""
    on = on or ecosystem.calibration.measurement_end
    return Counter(classify(leaf, on) for leaf in ecosystem.leaf_records())


def render_lifecycle(leaf: LeafRecord, width: int = 60) -> str:
    """ASCII rendering of one certificate's two timelines (Figure 1)."""
    events = [leaf.not_before, leaf.not_after, leaf.birth, leaf.death]
    if leaf.revoked_at is not None:
        events.append(leaf.revoked_at)
    start = min(events)
    end = max(events)
    span = max(1, (end - start).days)

    def column(day: datetime.date) -> int:
        return min(width - 1, round((day - start).days / span * (width - 1)))

    def bar(from_day: datetime.date, to_day: datetime.date, glyph: str) -> str:
        cells = [" "] * width
        lo, hi = column(from_day), column(to_day)
        for i in range(lo, hi + 1):
            cells[i] = glyph
        return "".join(cells)

    lines = [
        f"fresh  |{bar(leaf.not_before, leaf.not_after, '=')}|  "
        f"{leaf.not_before} .. {leaf.not_after}",
        f"alive  |{bar(leaf.birth, leaf.death, '#')}|  "
        f"{leaf.birth} .. {leaf.death}",
    ]
    if leaf.revoked_at is not None:
        cells = [" "] * width
        cells[column(leaf.revoked_at)] = "R"
        lines.append(f"revoked|{''.join(cells)}|  {leaf.revoked_at}")
    return "\n".join(lines)
