"""Differential gate for the batched (columnar) analysis protocol.

Every characterization analysis and the traffic model consume a trace
through one column walk (``consume_columns``), vectorized over numpy
views everywhere but in the sequential first-touch profile.  These
tests hold each walk to its row-at-a-time reference
(:func:`tests.trace_records.feed`) — field for field, on every
registry workload plus hypothesis-fuzzed traces — and prove that
chunked ``lo``/``hi`` consumption composes to the same state as one
whole-trace pass.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.traffic import TrafficSimulator, simulate_traffic
from repro.emulator import Machine
from repro.emulator.memory import STACK_BASE
from repro.isa import assemble
from repro.trace.analysis import (
    AccessDistribution,
    OffsetLocality,
    StackDepthProfile,
    consume_trace,
)
from repro.trace.columnar import ColumnarTrace
from repro.trace.first_touch import FirstTouchProfile
from repro.workloads import ALL_BENCHMARKS, workload

from tests.test_trace_columnar import _fuzz_source, _step
from tests.trace_records import feed, records

WINDOW = 2_000


def _trace(bench):
    return workload(bench).trace(max_instructions=WINDOW)


def _new_sinks():
    return (
        AccessDistribution(),
        StackDepthProfile(stack_base=STACK_BASE),
        OffsetLocality(),
        FirstTouchProfile(),
    )


def _sink_state(sinks):
    """Every observable field of all four analyses, comparably."""
    distribution, depth, locality, first_touch = sinks
    return (
        distribution.total_instructions,
        distribution.memory_references,
        dict(distribution.counts),
        list(depth.samples),
        depth.max_depth,
        dict(locality.histogram),
        locality.total,
        locality.sum_offsets,
        locality.beyond_tos,
        first_touch.stack_first_stores,
        first_touch.stack_first_loads,
        first_touch.other_first_stores,
        first_touch.other_first_loads,
        first_touch._previous_sp,
        set(first_touch._pending),
        dict(first_touch._seen_other),
    )


def _append_state(trace):
    sinks = _new_sinks()
    for record in records(trace):
        for sink in sinks:
            feed(sink, record)
    return _sink_state(sinks)


def _batched_state(trace, chunk=None):
    sinks = _new_sinks()
    if chunk is None:
        consume_trace(trace, sinks)
    else:
        for lo in range(0, len(trace), chunk):
            consume_trace(trace, sinks, lo, min(lo + chunk, len(trace)))
    return _sink_state(sinks)


class TestWorkloadDifferential:
    """Batched == record-at-a-time on every registry workload."""

    # (param is named ``bench``: pytest-benchmark owns ``benchmark``.)
    @pytest.mark.parametrize("bench", ALL_BENCHMARKS)
    def test_numpy_columns_match_append(self, bench):
        trace = _trace(bench)
        assert _batched_state(trace) == _append_state(trace)

    def test_chunked_consumption_composes(self):
        trace = _trace("gzip")
        assert _batched_state(trace, chunk=313) == _batched_state(trace)


class TestFuzzedDifferential:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(_step, min_size=1, max_size=30))
    def test_all_paths_agree(self, steps):
        program = assemble(_fuzz_source(steps))
        trace = ColumnarTrace()
        Machine(program).run(trace_sink=trace)
        reference = _append_state(trace)
        assert _batched_state(trace) == reference
        assert _batched_state(trace, chunk=7) == reference


class TestTrafficDifferential:
    """The Table 3/4 consumer: column walk == append reference."""

    @pytest.mark.parametrize("period", [None, 333])
    def test_matches_append(self, period):
        trace = _trace("crafty")
        reference = TrafficSimulator(context_switch_period=period)
        for record in records(trace):
            feed(reference, record)
        batched = simulate_traffic(trace, context_switch_period=period)
        assert batched == reference.result()

    def test_chunked_consumption_composes(self):
        trace = _trace("gzip")
        whole = TrafficSimulator(context_switch_period=777)
        whole.consume_columns(trace)
        chunked = TrafficSimulator(context_switch_period=777)
        for lo in range(0, len(trace), 505):
            chunked.consume_columns(trace, lo, min(lo + 505, len(trace)))
        assert chunked.result() == whole.result()


class TestConsumeTraceDispatcher:
    def test_notes_analysis_phase(self):
        from repro import profiling

        trace = _trace("gzip")
        with profiling.profiled() as profiler:
            consume_trace(trace, (AccessDistribution(),))
        stat = profiler.phases["analysis"]
        assert stat.calls == 1
        assert stat.items == len(trace)


class TestNumpyBackendSwitch:
    """The column views every batched walk reads."""

    def test_views_are_zero_copy(self):
        trace = _trace("mcf")
        arrays = trace.as_arrays()
        assert len(arrays.pc) == len(trace)
        assert arrays.pc.tolist() == list(trace.pc)
        assert arrays.flags.tolist() == list(trace.flags)
        # Same memory, not a copy.
        assert np.shares_memory(
            arrays.addr, np.frombuffer(trace.addr, dtype="uint64")
        )

    def test_empty_trace_views(self):
        assert ColumnarTrace().as_arrays().sp.size == 0
