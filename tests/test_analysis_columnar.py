"""Differential gate for the batched (columnar) analysis protocol.

Every characterization analysis has three consumption paths: the
record-at-a-time ``append`` method (the reference), the pure-python
column walk (``consume_columns`` with the numpy backend disabled) and
the vectorized numpy path (backend enabled).  These tests prove all
three observationally identical — field for field, on every registry
workload plus hypothesis-fuzzed traces — and that chunked ``lo``/``hi``
consumption composes to the same state as one whole-trace pass.

The numpy legs carry a skip-if marker so the suite still gates the
pure-python reference on hosts without numpy installed.
"""

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
from repro.trace.columnar import (
    ColumnarTrace,
    numpy_available,
    set_numpy_enabled,
)
from repro.trace.first_touch import FirstTouchProfile
from repro.workloads import ALL_BENCHMARKS, workload

from tests.test_trace_columnar import _fuzz_source, _step

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend not installed"
)

WINDOW = 2_000


@pytest.fixture
def no_numpy():
    previous = set_numpy_enabled(False)
    yield
    set_numpy_enabled(previous)


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
    for record in trace.records():
        for sink in sinks:
            sink.append(record)
    return _sink_state(sinks)


def _batched_state(trace, numpy_on, chunk=None):
    previous = set_numpy_enabled(numpy_on)
    try:
        sinks = _new_sinks()
        if chunk is None:
            consume_trace(trace, sinks)
        else:
            for lo in range(0, len(trace), chunk):
                consume_trace(
                    trace, sinks, lo, min(lo + chunk, len(trace))
                )
        return _sink_state(sinks)
    finally:
        set_numpy_enabled(previous)


class TestWorkloadDifferential:
    """Batched == record-at-a-time on every registry workload."""

    # (param is named ``bench``: pytest-benchmark owns ``benchmark``.)
    @pytest.mark.parametrize("bench", ALL_BENCHMARKS)
    def test_python_columns_match_append(self, bench):
        trace = _trace(bench)
        assert _batched_state(trace, numpy_on=False) == _append_state(
            trace
        )

    @requires_numpy
    @pytest.mark.parametrize("bench", ALL_BENCHMARKS)
    def test_numpy_columns_match_append(self, bench):
        trace = _trace(bench)
        assert _batched_state(trace, numpy_on=True) == _append_state(
            trace
        )

    @pytest.mark.parametrize("numpy_on", [False, pytest.param(True, marks=requires_numpy)])
    def test_chunked_consumption_composes(self, numpy_on):
        trace = _trace("gzip")
        whole = _batched_state(trace, numpy_on=numpy_on)
        assert _batched_state(trace, numpy_on=numpy_on, chunk=313) == whole


class TestFuzzedDifferential:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(_step, min_size=1, max_size=30))
    def test_all_paths_agree(self, steps):
        program = assemble(_fuzz_source(steps))
        trace = ColumnarTrace()
        Machine(program).run(trace_sink=trace)
        reference = _append_state(trace)
        assert _batched_state(trace, numpy_on=False) == reference
        assert _batched_state(trace, numpy_on=False, chunk=7) == reference
        if numpy_available():
            assert _batched_state(trace, numpy_on=True) == reference
            assert (
                _batched_state(trace, numpy_on=True, chunk=7) == reference
            )


class TestTrafficDifferential:
    """The Table 3/4 consumer: columnar paths == append reference."""

    @pytest.mark.parametrize("period", [None, 333])
    @pytest.mark.parametrize(
        "numpy_on", [False, pytest.param(True, marks=requires_numpy)]
    )
    def test_matches_append(self, period, numpy_on):
        trace = _trace("crafty")
        reference = TrafficSimulator(context_switch_period=period)
        for record in trace.records():
            reference.append(record)
        previous = set_numpy_enabled(numpy_on)
        try:
            batched = simulate_traffic(
                trace, context_switch_period=period
            )
        finally:
            set_numpy_enabled(previous)
        assert batched == reference.result()

    def test_record_list_input_still_works(self):
        trace = _trace("mcf")
        assert simulate_traffic(list(trace.records())) == simulate_traffic(
            trace
        )

    @pytest.mark.parametrize(
        "numpy_on", [False, pytest.param(True, marks=requires_numpy)]
    )
    def test_chunked_consumption_composes(self, numpy_on):
        trace = _trace("gzip")
        previous = set_numpy_enabled(numpy_on)
        try:
            whole = TrafficSimulator(context_switch_period=777)
            whole.consume_columns(trace)
            chunked = TrafficSimulator(context_switch_period=777)
            for lo in range(0, len(trace), 505):
                chunked.consume_columns(
                    trace, lo, min(lo + 505, len(trace))
                )
        finally:
            set_numpy_enabled(previous)
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
    def test_disable_returns_none_views(self, no_numpy):
        assert _trace("mcf").as_arrays() is None

    @requires_numpy
    def test_views_are_zero_copy(self):
        trace = _trace("mcf")
        arrays = trace.as_arrays()
        assert arrays is not None
        assert len(arrays.pc) == len(trace)
        assert arrays.pc.tolist() == list(trace.pc)
        assert arrays.flags.tolist() == list(trace.flags)
        # Same memory, not a copy.
        import numpy as np

        assert np.shares_memory(
            arrays.addr, np.frombuffer(trace.addr, dtype="uint64")
        )

    @requires_numpy
    def test_empty_trace_views(self):
        arrays = ColumnarTrace().as_arrays()
        assert arrays is not None
        assert arrays.sp.size == 0
