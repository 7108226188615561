"""Functional memory-traffic simulation (paper Tables 3 and 4).

Drives the SVF and the decoupled stack cache over the same dynamic
instruction stream, without timing, and reports the quad-word traffic
each scheme generates.  This is exactly the paper's Table 3 experiment:
the stack cache moves whole lines on compulsory/capacity/conflict
misses and dirty evictions, while the SVF only moves words that are
demand-read or live-and-dirty.

With ``context_switch_period`` set, both structures are additionally
flushed every N instructions and the average writeback per switch is
recorded (paper Table 4; the paper uses N = 400 000).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Iterable, List, Optional

import numpy as np

from repro import profiling
from repro.core.stack_cache import StackCache
from repro.core.svf import StackValueFile
from repro.trace.columnar import ColumnarTrace
from repro.trace.regions import STACK_REGION_FLOOR


@dataclass
class TrafficResult:
    """Quad-word traffic of both schemes over one trace."""

    capacity_bytes: int
    instructions: int = 0
    stack_references: int = 0
    svf_qw_in: int = 0
    svf_qw_out: int = 0
    stack_cache_qw_in: int = 0
    stack_cache_qw_out: int = 0
    # Context-switch accounting (Table 4).
    context_switches: int = 0
    svf_switch_bytes: int = 0
    stack_cache_switch_bytes: int = 0
    # Valid/dirty-bit wins (checked against repro.analysis.predict).
    svf_fills_avoided: int = 0
    svf_killed_words: int = 0
    svf_killed_dirty_words: int = 0

    @property
    def svf_switch_bytes_avg(self) -> float:
        """Average bytes the SVF writes back per context switch."""
        if self.context_switches == 0:
            return 0.0
        return self.svf_switch_bytes / self.context_switches

    @property
    def stack_cache_switch_bytes_avg(self) -> float:
        """Average bytes the stack cache writes back per switch."""
        if self.context_switches == 0:
            return 0.0
        return self.stack_cache_switch_bytes / self.context_switches


class TrafficSimulator:
    """Traffic model fed one trace window at a time.

    :meth:`consume_columns` is the protocol every caller uses; windows
    fed in order compose to one whole-trace pass.
    """

    def __init__(
        self,
        capacity_bytes: int = 8192,
        line_size: int = 32,
        context_switch_period: Optional[int] = None,
    ):
        self.svf = StackValueFile(capacity_bytes=capacity_bytes)
        self.stack_cache = StackCache(
            capacity_bytes=capacity_bytes, line_size=line_size
        )
        self.capacity_bytes = capacity_bytes
        self.context_switch_period = context_switch_period
        self._sp_seen = False
        self._instructions = 0
        self._stack_references = 0
        self._switches = 0
        self._svf_switch_bytes = 0
        self._stack_cache_switch_bytes = 0

    def consume_columns(
        self, trace: ColumnarTrace, lo: int = 0, hi: Optional[int] = None
    ) -> None:
        """Drain ``trace[lo:hi)`` into both structures.

        One vectorized scan over the column views finds the candidate
        indices (stack references, ``$sp`` updates and context-switch
        points), and only those instructions are visited, reading the
        columns by index; the model-call sequence is identical to a
        visit of every row.
        """
        hi = len(trace) if hi is None else hi
        col_flags = trace.flags
        col_addr = trace.addr
        col_size = trace.size
        col_sp = trace.sp
        svf = self.svf
        svf_access = svf.access
        sc_access = self.stack_cache.access
        update_sp = svf.update_sp
        stack_floor = STACK_REGION_FLOOR
        period = self.context_switch_period
        instructions = self._instructions
        stack_references = self._stack_references
        if not self._sp_seen and hi > lo:
            update_sp(col_sp[lo])
            self._sp_seen = True
        arrays = trace.as_arrays()
        flags_view = arrays.flags[lo:hi]
        addr_view = arrays.addr[lo:hi]
        interesting = (
            ((flags_view & 3) != 0) & (addr_view >= stack_floor)
        ) | ((flags_view & 32) != 0)
        candidates = np.nonzero(interesting)[0]
        if period:
            first_switch = period - (instructions % period) - 1
            switch_points = np.arange(first_switch, hi - lo, period)
            candidates = np.union1d(candidates, switch_points)
        for relative in candidates.tolist():
            index = relative + lo
            flags = col_flags[index]
            if flags & 3:  # load or store
                addr = col_addr[index]
                if addr >= stack_floor:
                    stack_references += 1
                    is_store = bool(flags & 2)
                    size = col_size[index]
                    svf_access(addr, size, is_store)
                    sc_access(addr, size, is_store)
            if flags & 32:  # sp_update
                update_sp(col_sp[index])
            if period and (instructions + relative + 1) % period == 0:
                self._switches += 1
                self._svf_switch_bytes += svf.context_switch()
                self._stack_cache_switch_bytes += (
                    self.stack_cache.context_switch()
                )
        self._instructions = instructions + (hi - lo)
        self._stack_references = stack_references

    def result(self) -> TrafficResult:
        return TrafficResult(
            capacity_bytes=self.capacity_bytes,
            instructions=self._instructions,
            stack_references=self._stack_references,
            svf_qw_in=self.svf.qw_in,
            svf_qw_out=self.svf.qw_out,
            stack_cache_qw_in=self.stack_cache.qw_in,
            stack_cache_qw_out=self.stack_cache.qw_out,
            context_switches=self._switches,
            svf_switch_bytes=self._svf_switch_bytes,
            stack_cache_switch_bytes=self._stack_cache_switch_bytes,
            svf_fills_avoided=self.svf.fills_avoided,
            svf_killed_words=self.svf.killed_words,
            svf_killed_dirty_words=self.svf.killed_dirty_words,
        )


def simulate_traffic(
    trace: ColumnarTrace,
    capacity_bytes: int = 8192,
    line_size: int = 32,
    context_switch_period: Optional[int] = None,
) -> TrafficResult:
    """Run the Table 3/4 traffic comparison over a finished trace."""
    profiler = profiling.active()
    profile_started = perf_counter() if profiler is not None else 0.0
    simulator = TrafficSimulator(
        capacity_bytes=capacity_bytes,
        line_size=line_size,
        context_switch_period=context_switch_period,
    )
    simulator.consume_columns(trace)
    result = simulator.result()
    if profiler is not None:
        profiler.note(
            "traffic", perf_counter() - profile_started, result.instructions
        )
    return result


def traffic_size_sweep(
    trace: ColumnarTrace,
    sizes: Iterable[int] = (2048, 4096, 8192),
    line_size: int = 32,
) -> List[TrafficResult]:
    """Table 3: traffic at several SVF / stack-cache sizes."""
    return [
        simulate_traffic(trace, capacity_bytes=size, line_size=line_size)
        for size in sizes
    ]
