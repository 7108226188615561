"""Per-cycle structural-resource pools for the one-pass timing model.

Each pool models one resource kind with a fixed number of units per
cycle (decode slots, issue slots, ALUs, cache ports...).  The timing
model asks for the earliest cycle at or after a lower bound where one
unit (or one unit of *each* of several pools) is free.

:class:`CyclePool` states those semantics over a ``{cycle: used}``
dict.  The timing walk (:mod:`repro.uarch.pipeline`) keeps its issue,
FU and port pools in :class:`CycleWindow` dense lists instead and
probes ``slots`` directly; its fetch, dispatch and commit pools need no
window at all, because their floors never decrease.
"""

from __future__ import annotations

from typing import Dict, Iterable


class CyclePool:
    """A resource with ``per_cycle`` units available each cycle."""

    __slots__ = ("name", "per_cycle", "_used")

    def __init__(self, name: str, per_cycle: int):
        if per_cycle <= 0:
            raise ValueError(f"{name}: per_cycle must be positive")
        self.name = name
        self.per_cycle = per_cycle
        self._used: Dict[int, int] = {}

    def available(self, cycle: int) -> bool:
        """True if a unit is free at ``cycle``."""
        return self._used.get(cycle, 0) < self.per_cycle

    def take(self, cycle: int) -> None:
        """Consume one unit at ``cycle`` (caller checked availability)."""
        self._used[cycle] = self._used.get(cycle, 0) + 1

    def acquire(self, cycle: int) -> int:
        """Take one unit at the earliest cycle >= ``cycle``."""
        used = self._used
        per_cycle = self.per_cycle
        while used.get(cycle, 0) >= per_cycle:
            cycle += 1
        used[cycle] = used.get(cycle, 0) + 1
        return cycle

    def usage(self, cycle: int) -> int:
        return self._used.get(cycle, 0)


class CycleWindow:
    """Dense occupancy window: ``slots[cycle]`` = units used.

    The timing walk keeps each resource pool as a flat list indexed by
    absolute cycle instead of a ``{cycle: used}`` dict — probe/take
    become two C-speed list indexings on ``slots``.  The caller sizes
    the window past the highest cycle it can touch (tracking a cycle
    horizon plus a per-instruction latency margin) and calls
    :meth:`grow` when the horizon approaches the end.  Semantics are
    exactly :class:`CyclePool`'s: a unit is free at ``cycle`` when
    ``slots[cycle] < per_cycle``.
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


def acquire_all(pools: Iterable[CyclePool], cycle: int) -> int:
    """Take one unit of *each* pool at the earliest common free cycle."""
    pool_list = list(pools)
    while True:
        if all(pool.available(cycle) for pool in pool_list):
            for pool in pool_list:
                pool.take(cycle)
            return cycle
        cycle += 1
