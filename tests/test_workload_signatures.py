"""Per-workload signature tests.

Each SPEC-inspired workload was built to exhibit one distinguishing
behaviour from the paper (gcc's depth, eon's gpr accesses, perlbmk's
giant frame, gzip's flatness...).  These tests pin those signatures so
workload edits can't silently erase the property an experiment relies
on.
"""

import pytest

from repro.emulator.memory import STACK_BASE
from repro.trace.analysis import (
    AccessDistribution,
    StackDepthProfile,
    consume_trace,
)
from repro.trace.columnar import ColumnarTrace
from repro.trace.regions import AccessMethod
from repro.workloads import workload

from tests.trace_records import next_pcs, records

WINDOW = 40_000


@pytest.fixture(scope="module")
def profiles():
    """(distribution, depth) per benchmark, one emulation each."""
    out = {}
    names = [
        "bzip2", "crafty", "eon", "gap", "gcc", "gzip", "mcf",
        "parser", "twolf", "vortex", "perlbmk", "vpr",
    ]
    for name in names:
        distribution = AccessDistribution()
        depth = StackDepthProfile(stack_base=STACK_BASE)
        consume_trace(
            workload(name).trace(max_instructions=WINDOW),
            (distribution, depth),
        )
        out[name] = (distribution, depth)
    return out


class TestCallDepthSignatures:
    def test_crafty_recursion_band(self, profiles):
        """Figure 2: crafty has a wide, active recursion band."""
        _, depth = profiles["crafty"]
        low, high = depth.stable_range()
        assert high - low > 100  # oscillates over hundreds of words

    def test_gzip_is_flat(self, profiles):
        _, depth = profiles["gzip"]
        assert depth.max_depth < 60

    def test_mcf_is_flat(self, profiles):
        _, depth = profiles["mcf"]
        assert depth.max_depth < 60

    def test_perlbmk_has_the_giant_frame(self, profiles):
        """The interpreter frame exceeds 8 KB (1000+ words)."""
        _, depth = profiles["perlbmk"]
        assert depth.max_depth > 1000

    def test_gcc_is_among_the_deepest(self, profiles):
        _, gcc_depth = profiles["gcc"]
        shallower = ["gzip", "mcf", "vortex", "twolf", "bzip2"]
        for other in shallower:
            assert gcc_depth.max_depth > profiles[other][1].max_depth


class TestAccessMethodSignatures:
    def test_eon_is_gpr_heavy(self, profiles):
        distribution, _ = profiles["eon"]
        gpr = distribution.fraction(AccessMethod.STACK_GPR)
        assert gpr > 0.15

    def test_eon_uses_fp_frames(self, profiles):
        distribution, _ = profiles["eon"]
        assert distribution.fraction(AccessMethod.STACK_FP) > 0.01

    def test_gzip_is_pure_sp(self, profiles):
        distribution, _ = profiles["gzip"]
        assert distribution.sp_fraction_of_stack > 0.95

    def test_mcf_and_gap_hit_the_heap(self, profiles):
        for name in ("mcf", "gap"):
            distribution, _ = profiles[name]
            assert distribution.fraction(AccessMethod.HEAP) > 0.1, name

    def test_vortex_touches_heap_records(self, profiles):
        distribution, _ = profiles["vortex"]
        assert distribution.fraction(AccessMethod.HEAP) > 0.05

    def test_every_workload_references_the_stack(self, profiles):
        for name, (distribution, _) in profiles.items():
            assert distribution.stack_fraction > 0.03, name


class TestCallReturnBalance:
    """Paper Section 2: call/return $sp adjustments exactly cancel."""

    @pytest.mark.parametrize("name", ["crafty", "gcc", "parser"])
    def test_sp_restored_across_calls(self, name):
        trace = ColumnarTrace()
        machine = workload(name).run(max_instructions=WINDOW,
                                     trace_sink=trace)
        # Pair each call with its return via the return address and
        # check $sp is identical at both points.
        call_stack = []
        violations = 0
        for record, next_pc in zip(records(trace),
                                   next_pcs(trace, machine.pc)):
            if record.op in ("bsr", "jsr"):
                call_stack.append((record.pc + 4, record.sp_value))
            elif record.op == "ret" and call_stack:
                return_to, sp_at_call = call_stack[-1]
                if next_pc == return_to:
                    call_stack.pop()
                    # $sp before the epilogue already restored it.
                    if record.sp_value != sp_at_call:
                        violations += 1
        assert violations == 0

    def test_sp_adjustments_come_in_cancelling_pairs(self):
        """Every frame allocation has a matching deallocation size."""
        trace = workload("crafty").trace(max_instructions=WINDOW)
        open_frames = []
        for record in records(trace):
            if record.sp_update and record.sp_update_immediate:
                change = record.sp_update_immediate
                if change < 0:
                    open_frames.append(-change)
                elif open_frames:
                    assert change == open_frames.pop()
