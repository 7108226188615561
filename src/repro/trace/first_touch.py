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

from repro.trace.columnar import ColumnarTrace
from repro.trace.records import TraceRecord
from repro.trace.regions import STACK_REGION_FLOOR, is_stack_address


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

    def append(self, record: TraceRecord) -> None:
        """Reference form of :meth:`consume_columns`: one record."""
        if self._previous_sp == 0:
            self._previous_sp = record.sp_value
        if record.is_load or record.is_store:
            word = record.addr & ~7
            if is_stack_address(record.addr):
                if word in self._pending:
                    self._pending.discard(word)
                    if record.is_store:
                        self.stack_first_stores += 1
                    else:
                        self.stack_first_loads += 1
            elif word not in self._seen_other:
                self._seen_other[word] = True
                if record.is_store:
                    self.other_first_stores += 1
                else:
                    self.other_first_loads += 1
        if record.sp_update:
            new_sp = record.sp_value
            if new_sp < self._previous_sp:
                exposed = min(
                    (self._previous_sp - new_sp) // 8, self.allocation_cap
                )
                for index in range(exposed):
                    self._pending.add(new_sp + 8 * index)
            else:
                # Deallocation kills pending-but-untouched words.
                for word in [
                    w for w in self._pending if w < new_sp
                ]:
                    self._pending.discard(word)
            self._previous_sp = new_sp

    def consume_columns(
        self, trace: ColumnarTrace, lo: int = 0, hi: Optional[int] = None
    ) -> None:
        """Batched form of ``append`` over ``trace[lo:hi)``.

        This analysis is an inherently sequential state machine (each
        instruction's effect depends on the pending-word set left by
        all earlier ones), so there is no vectorized variant — the
        batched win is skipping record materialization and walking the
        packed columns with locals bound.
        """
        hi = len(trace) if hi is None else hi
        col_flags = trace.flags
        col_addr = trace.addr
        col_sp = trace.sp
        stack_floor = STACK_REGION_FLOOR
        pending = self._pending
        seen_other = self._seen_other
        previous_sp = self._previous_sp
        cap = self.allocation_cap
        for index in range(lo, hi):
            flags = col_flags[index]
            if previous_sp == 0:
                previous_sp = col_sp[index]
            if flags & 3:  # load or store
                addr = col_addr[index]
                word = addr & ~7
                if addr >= stack_floor:
                    if word in pending:
                        pending.discard(word)
                        if flags & 2:
                            self.stack_first_stores += 1
                        else:
                            self.stack_first_loads += 1
                elif word not in seen_other:
                    seen_other[word] = True
                    if flags & 2:
                        self.other_first_stores += 1
                    else:
                        self.other_first_loads += 1
            if flags & 32:  # sp_update
                new_sp = col_sp[index]
                if new_sp < previous_sp:
                    exposed = min((previous_sp - new_sp) // 8, cap)
                    for offset in range(exposed):
                        pending.add(new_sp + 8 * offset)
                else:
                    for word in [w for w in pending if w < new_sp]:
                        pending.discard(word)
                previous_sp = new_sp
        self._previous_sp = previous_sp

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
