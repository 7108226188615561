"""Trace analyses reproducing the paper's Figures 1-3.

Each analysis consumes a :class:`~repro.trace.columnar.ColumnarTrace`
window through ``consume_columns(trace, lo, hi)``: region
classification and histogram accumulation run as vectorized numpy
reductions over the column views (:meth:`ColumnarTrace.as_arrays`),
without materializing a :class:`TraceRecord` per instruction.

Each analysis also keeps a record-at-a-time ``append`` method.  It is
not a trace protocol — the emulator emits only columns — but the
plain reference the column walks are held to:
``tests/test_analysis_columnar.py`` gates both paths field-for-field
on the whole workload suite plus fuzzed traces.

:func:`consume_trace` is the dispatcher the harness uses: it feeds one
trace window to many analyses and notes the ``analysis`` phase into
the active :mod:`repro.profiling` profiler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import profiling
from repro.emulator.memory import DATA_BASE, HEAP_BASE
from repro.isa.registers import FP, SP
from repro.trace.columnar import ColumnarTrace
from repro.trace.records import TraceRecord
from repro.trace.regions import (
    AccessMethod,
    STACK_REGION_FLOOR,
    classify_access,
)


@dataclass
class AccessDistribution:
    """Figure 1: run-time memory-access distribution.

    Counts data references by region and access method, normalized to
    total memory references, plus the fraction of all instructions that
    access memory.
    """

    total_instructions: int = 0
    memory_references: int = 0
    counts: Dict[AccessMethod, int] = field(
        default_factory=lambda: {method: 0 for method in AccessMethod}
    )

    def append(self, record: TraceRecord) -> None:
        """Reference form of :meth:`consume_columns`: one record."""
        self.total_instructions += 1
        if not (record.is_load or record.is_store):
            return
        self.memory_references += 1
        self.counts[classify_access(record.addr, record.base_reg)] += 1

    def consume_columns(
        self, trace: ColumnarTrace, lo: int = 0, hi: Optional[int] = None
    ) -> None:
        """Batched form of ``append`` over ``trace[lo:hi)``.

        The TEXT region folds into OTHER in
        :func:`repro.trace.regions.classify_access`, so OTHER is every
        non-stack reference below ``DATA_BASE``.
        """
        hi = len(trace) if hi is None else hi
        arrays = trace.as_arrays()
        flags = arrays.flags[lo:hi]
        addr = arrays.addr[lo:hi]
        base = arrays.base[lo:hi]
        memory = (flags & 3) != 0
        stack = memory & (addr >= STACK_REGION_FLOOR)
        sp_count = int((stack & (base == SP)).sum())
        fp_count = int((stack & (base == FP)).sum())
        stack_count = int(stack.sum())
        nonstack = memory & ~stack
        heap_count = int((nonstack & (addr >= HEAP_BASE)).sum())
        global_count = int(
            (nonstack & (addr >= DATA_BASE) & (addr < HEAP_BASE)).sum()
        )
        memory_count = int(memory.sum())
        self.total_instructions += hi - lo
        self.memory_references += memory_count
        counts = self.counts
        counts[AccessMethod.STACK_SP] += sp_count
        counts[AccessMethod.STACK_FP] += fp_count
        counts[AccessMethod.STACK_GPR] += stack_count - sp_count - fp_count
        counts[AccessMethod.GLOBAL] += global_count
        counts[AccessMethod.HEAP] += heap_count
        counts[AccessMethod.OTHER] += (
            memory_count - stack_count - heap_count - global_count
        )

    @property
    def memory_fraction(self) -> float:
        """Fraction of executed instructions that reference memory."""
        if self.total_instructions == 0:
            return 0.0
        return self.memory_references / self.total_instructions

    def fraction(self, method: AccessMethod) -> float:
        """Fraction of memory references with the given classification."""
        if self.memory_references == 0:
            return 0.0
        return self.counts[method] / self.memory_references

    @property
    def stack_fraction(self) -> float:
        """Fraction of memory references that touch the stack."""
        return (
            self.fraction(AccessMethod.STACK_SP)
            + self.fraction(AccessMethod.STACK_FP)
            + self.fraction(AccessMethod.STACK_GPR)
        )

    @property
    def sp_fraction_of_stack(self) -> float:
        """Fraction of *stack* references that are $sp-relative."""
        stack_total = (
            self.counts[AccessMethod.STACK_SP]
            + self.counts[AccessMethod.STACK_FP]
            + self.counts[AccessMethod.STACK_GPR]
        )
        if stack_total == 0:
            return 0.0
        return self.counts[AccessMethod.STACK_SP] / stack_total


@dataclass
class StackDepthProfile:
    """Figure 2: stack-depth variation over time.

    Logs the TOS depth (in 64-bit units below the stack base, matching
    the paper's y-axis) at every ``$sp`` update.
    """

    stack_base: int
    samples: List[Tuple[int, int]] = field(default_factory=list)
    max_depth: int = 0

    def append(self, record: TraceRecord) -> None:
        """Reference form of :meth:`consume_columns`: one record."""
        if not record.sp_update:
            return
        depth = (self.stack_base - record.sp_value) // 8
        self.samples.append((record.index, depth))
        if depth > self.max_depth:
            self.max_depth = depth

    def consume_columns(
        self, trace: ColumnarTrace, lo: int = 0, hi: Optional[int] = None
    ) -> None:
        """Batched form of ``append`` over ``trace[lo:hi)``.

        Sample indices stay absolute trace positions, matching the
        ``record.index`` values of the reference path.
        """
        hi = len(trace) if hi is None else hi
        arrays = trace.as_arrays()
        flags = arrays.flags[lo:hi]
        updates = np.nonzero((flags & 32) != 0)[0]
        if not updates.size:
            return
        # int64 cast before the subtraction: uint64 would wrap if the
        # stack base ever sat below $sp.
        sp_values = arrays.sp[lo:hi][updates].astype(np.int64)
        depths = (self.stack_base - sp_values) // 8
        self.samples.extend(
            zip((updates + lo).tolist(), depths.tolist())
        )
        top = int(depths.max())
        if top > self.max_depth:
            self.max_depth = top

    def depth_series(self, points: int = 100) -> List[int]:
        """Resample the depth curve to a fixed number of points."""
        if not self.samples or points <= 0:
            return []
        if len(self.samples) <= points:
            return [depth for _, depth in self.samples]
        step = len(self.samples) / points
        return [
            self.samples[int(i * step)][1] for i in range(points)
        ]

    def stable_range(self, skip_fraction: float = 0.2) -> Tuple[int, int]:
        """(min, max) depth after the initialization phase."""
        if not self.samples:
            return (0, 0)
        start = int(len(self.samples) * skip_fraction)
        depths = [depth for _, depth in self.samples[start:]] or [
            self.samples[-1][1]
        ]
        return (min(depths), max(depths))


@dataclass
class OffsetLocality:
    """Figure 3: cumulative distribution of offsets from the TOS.

    For each stack reference, the offset is ``addr - $sp`` (the stack
    grows down, so live data sits at addresses >= ``$sp``).  The paper
    plots the within-function CDF on a log10 x-axis and reports the
    average distance and the fraction within 8 KB.
    """

    histogram: Dict[int, int] = field(default_factory=dict)
    total: int = 0
    sum_offsets: int = 0
    beyond_tos: int = 0

    def append(self, record: TraceRecord) -> None:
        """Reference form of :meth:`consume_columns`: one record."""
        if not (record.is_load or record.is_store):
            return
        from repro.trace.regions import is_stack_address

        if not is_stack_address(record.addr):
            return
        offset = record.addr - record.sp_value
        if offset < 0:
            self.beyond_tos += 1
            return
        self.total += 1
        self.sum_offsets += offset
        self.histogram[offset] = self.histogram.get(offset, 0) + 1

    def consume_columns(
        self, trace: ColumnarTrace, lo: int = 0, hi: Optional[int] = None
    ) -> None:
        """Batched form of ``append`` over ``trace[lo:hi)``."""
        hi = len(trace) if hi is None else hi
        arrays = trace.as_arrays()
        flags = arrays.flags[lo:hi]
        addr = arrays.addr[lo:hi]
        stack = np.nonzero(
            ((flags & 3) != 0) & (addr >= STACK_REGION_FLOOR)
        )[0]
        if not stack.size:
            return
        # int64 casts before the subtraction: the columns are uint64
        # and a reference beyond the TOS (addr < $sp) would wrap.
        offsets = addr[stack].astype(np.int64) - arrays.sp[lo:hi][
            stack
        ].astype(np.int64)
        beyond = offsets < 0
        self.beyond_tos += int(beyond.sum())
        covered = offsets[~beyond]
        if not covered.size:
            return
        self.total += int(covered.size)
        self.sum_offsets += int(covered.sum())
        values, counts = np.unique(covered, return_counts=True)
        histogram = self.histogram
        for offset, count in zip(values.tolist(), counts.tolist()):
            histogram[offset] = histogram.get(offset, 0) + count

    @property
    def average_offset(self) -> float:
        """Average distance (bytes) of a stack reference from the TOS."""
        if self.total == 0:
            return 0.0
        return self.sum_offsets / self.total

    def fraction_within(self, limit_bytes: int) -> float:
        """Fraction of stack references within ``limit_bytes`` of TOS."""
        if self.total == 0:
            return 0.0
        covered = sum(
            count
            for offset, count in self.histogram.items()
            if offset <= limit_bytes
        )
        return covered / self.total

    def cdf(self) -> List[Tuple[int, float]]:
        """The cumulative distribution as (offset, fraction) pairs."""
        cumulative = 0
        points = []
        for offset in sorted(self.histogram):
            cumulative += self.histogram[offset]
            points.append((offset, cumulative / self.total))
        return points

    def log_cdf(self, buckets: int = 32) -> List[Tuple[float, float]]:
        """CDF resampled onto a log10 grid (the paper's x-axis)."""
        if self.total == 0:
            return []
        max_offset = max(self.histogram)
        top = math.log10(max(max_offset, 1) + 1)
        grid = [10 ** (top * (i + 1) / buckets) - 1 for i in range(buckets)]
        grid[-1] = float(max_offset)  # guard against float rounding
        cdf_points = self.cdf()
        out = []
        position = 0
        cumulative = 0.0
        for edge in grid:
            while position < len(cdf_points) and cdf_points[position][0] <= edge:
                cumulative = cdf_points[position][1]
                position += 1
            out.append((edge, cumulative))
        return out


def consume_trace(
    trace: ColumnarTrace,
    sinks: Sequence,
    lo: int = 0,
    hi: Optional[int] = None,
) -> int:
    """Feed ``trace[lo:hi)`` to every sink; returns instructions fed.

    Each sink walks the window through its ``consume_columns``.  Wall
    time and instruction count are noted as the ``analysis`` phase of
    the active :mod:`repro.profiling` profiler.
    """
    profiler = profiling.active()
    started = perf_counter() if profiler is not None else 0.0
    end = len(trace) if hi is None else hi
    for sink in sinks:
        sink.consume_columns(trace, lo, end)
    count = end - lo
    if profiler is not None:
        profiler.note("analysis", perf_counter() - started, count)
    return count
