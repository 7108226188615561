"""Per-cycle structural-resource windows for the one-pass timing model.

Each window models one resource kind with a fixed number of units per
cycle (issue slots, multipliers, cache ports...).  The timing walk
(:mod:`repro.uarch.pipeline`) asks for the earliest cycle at or after a
lower bound where one unit (or one unit of each of two windows) is
free, and probes ``slots`` directly to find it.  Dispatch and commit
need no window at all, because their floors never decrease.
"""

from __future__ import annotations

from typing import Iterable


class CycleWindow:
    """Dense occupancy window: ``slots[cycle]`` = units used.

    The timing walk keeps each resource pool as a flat list indexed by
    absolute cycle, so probe and take are two list indexings on
    ``slots``: a unit is free at ``cycle`` when ``slots[cycle] <
    per_cycle``.  The caller sizes the window past the highest cycle it
    can touch (tracking a cycle horizon plus a per-instruction latency
    margin) and calls :meth:`grow` when the horizon approaches the end.
    """

    __slots__ = ("name", "per_cycle", "slots")

    def __init__(self, name: str, per_cycle: int, capacity: int):
        if per_cycle <= 0:
            raise ValueError(f"{name}: per_cycle must be positive")
        self.name = name
        self.per_cycle = per_cycle
        self.slots = [0] * capacity

    def grow(self, minimum: int) -> int:
        """Extend to at least ``minimum`` slots (geometric); new len."""
        slots = self.slots
        need = max(minimum, 2 * len(slots)) - len(slots)
        if need > 0:
            slots += [0] * need
        return len(slots)


def grow_windows(windows: Iterable[CycleWindow], minimum: int) -> int:
    """Grow every window to at least ``minimum`` slots; returns new len.

    All windows of one walk are created with the same capacity and
    grown together, so the returned length is valid for every one of
    them.  Growth is in place (``slots`` keeps its identity), so flat
    aliases of the slot lists held by the caller stay valid.
    """
    length = 0
    for window in windows:
        length = window.grow(minimum)
    return length
