"""First-touch analysis of stack words (paper Section 7, contribution 1).

The paper lists among the distinguishing characteristics of stack
references "a much higher percentage of first reference store
operations (making per word valid bits attractive)": a word exposed by
stack growth is uninitialized, so its first access after allocation is
almost always a store.  A conventional cache cannot exploit this (it
fills the line either way); the SVF's valid bits turn it into zero
fill traffic.

:class:`FirstTouchProfile` measures it directly: it tracks allocation
events via ``$sp`` decreases and classifies the first reference to
each newly exposed quad-word.  For contrast it also classifies first
touches to non-stack (global/heap) words, where loads come first far
more often.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

import numpy as np

from repro.trace.columnar import ColumnarTrace
from repro.trace.regions import STACK_REGION_FLOOR


@dataclass
class FirstTouchProfile:
    """Trace analysis measuring first-touch store fractions."""

    #: stack words allocated (exposed by an $sp decrease) but untouched
    _pending: Set[int] = field(default_factory=set)
    _previous_sp: int = 0
    _seen_other: Dict[int, bool] = field(default_factory=dict)
    #: max words tracked per allocation (guards giant frames)
    allocation_cap: int = 4096

    stack_first_stores: int = 0
    stack_first_loads: int = 0
    other_first_stores: int = 0
    other_first_loads: int = 0

    def consume_columns(
        self, trace: ColumnarTrace, lo: int = 0, hi: Optional[int] = None
    ) -> None:
        """Classify the first touches of ``trace[lo:hi)``.

        This analysis is an inherently sequential state machine (each
        instruction's effect depends on the pending-word set left by
        all earlier ones), but only loads, stores and ``$sp`` updates
        change its state: one vectorized scan finds them, and the walk
        visits only those rows.  The previous ``$sp`` starts at 0 and
        takes the first nonzero ``$sp`` of any row (again after an
        update sets it to 0); since the walk skips rows, it finds that
        value by scanning the rows since the last update.
        """
        hi = len(trace) if hi is None else hi
        arrays = trace.as_arrays()
        flags_view = arrays.flags[lo:hi]
        sp_view = arrays.sp[lo:hi]
        active = np.flatnonzero(flags_view & 35)  # load, store, sp_update
        stack_floor = STACK_REGION_FLOOR
        pending = self._pending
        seen_other = self._seen_other
        previous_sp = self._previous_sp
        seed_from = 0
        cap = self.allocation_cap
        stack_stores = stack_loads = other_stores = other_loads = 0
        for position, flags, addr, new_sp in zip(
            active.tolist(),
            flags_view[active].tolist(),
            arrays.addr[lo:hi][active].tolist(),
            sp_view[active].tolist(),
        ):
            if flags & 3:  # load or store
                word = addr & ~7
                if addr >= stack_floor:
                    if word in pending:
                        pending.discard(word)
                        if flags & 2:
                            stack_stores += 1
                        else:
                            stack_loads += 1
                elif word not in seen_other:
                    seen_other[word] = True
                    if flags & 2:
                        other_stores += 1
                    else:
                        other_loads += 1
            if flags & 32:  # sp_update
                if previous_sp == 0:
                    previous_sp = _first_nonzero(sp_view, seed_from,
                                                 position + 1)
                if new_sp < previous_sp:
                    exposed = min((previous_sp - new_sp) // 8, cap)
                    for offset in range(exposed):
                        pending.add(new_sp + 8 * offset)
                else:
                    for word in [w for w in pending if w < new_sp]:
                        pending.discard(word)
                previous_sp = new_sp
                seed_from = position + 1
        if previous_sp == 0:
            previous_sp = _first_nonzero(sp_view, seed_from, hi - lo)
        self._previous_sp = previous_sp
        self.stack_first_stores += stack_stores
        self.stack_first_loads += stack_loads
        self.other_first_stores += other_stores
        self.other_first_loads += other_loads

    @property
    def stack_first_store_fraction(self) -> float:
        """Fraction of freshly allocated stack words written first."""
        total = self.stack_first_stores + self.stack_first_loads
        if total == 0:
            return 0.0
        return self.stack_first_stores / total

    @property
    def other_first_store_fraction(self) -> float:
        """Same metric for global/heap words (the contrast)."""
        total = self.other_first_stores + self.other_first_loads
        if total == 0:
            return 0.0
        return self.other_first_stores / total


def _first_nonzero(values, start: int, stop: int) -> int:
    """The first nonzero entry of ``values[start:stop]``, else 0."""
    hits = np.flatnonzero(values[start:stop])
    return int(values[start + hits[0]]) if hits.size else 0
