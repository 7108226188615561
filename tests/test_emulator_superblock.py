"""Differential gate for the superblock replay engine.

Step-decode is the reference implementation; replay must be
bit-identical on every registry and adversarial workload, on
hypothesis-fuzzed programs, branches and calls, across window
boundaries, and through faults.
The gate runs both paths in one process via
``set_superblock_enabled`` and compares full column traces.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.emulator import TEXT_BASE, Machine
from repro.emulator.machine import EmulatorError
from repro.emulator.memory import MemoryError_
from repro.emulator.superblock import (
    MIN_BLOCK_LENGTH,
    set_superblock_enabled,
    superblock_enabled,
)
from repro.isa import assemble
from repro.isa.instructions import CONDITIONAL_BRANCHES
from repro.profiling import profiled
from repro.trace.columnar import ColumnarTrace
from repro.workloads import registry
from repro.workloads.adversarial import ADVERSARIAL
from tests.test_trace_columnar import FAULT_PROGRAMS


def _trace_with(source_or_workload, enabled, max_instructions=None):
    """Run with the engine toggled; returns (trace, machine, error)."""
    previous = set_superblock_enabled(enabled)
    try:
        if isinstance(source_or_workload, str):
            machine = Machine(assemble(source_or_workload))
        else:
            machine = Machine(source_or_workload.program())
        trace = ColumnarTrace()
        error = None
        try:
            machine.run(
                max_instructions=max_instructions, trace_sink=trace
            )
        except (EmulatorError, MemoryError_) as exc:
            error = (type(exc), str(exc))
        return trace, machine, error
    finally:
        set_superblock_enabled(previous)


def _assert_identical(source_or_workload, max_instructions=None):
    ref_trace, ref_machine, ref_error = _trace_with(
        source_or_workload, False, max_instructions
    )
    sb_trace, sb_machine, sb_error = _trace_with(
        source_or_workload, True, max_instructions
    )
    assert sb_error == ref_error
    assert len(sb_trace) == len(ref_trace)
    assert sb_trace == ref_trace
    assert sb_machine.registers == ref_machine.registers
    assert sb_machine.output == ref_machine.output
    assert sb_machine.instruction_count == ref_machine.instruction_count
    assert sb_machine.memory._words == ref_machine.memory._words
    return ref_trace


class TestWorkloadIdentity:
    @pytest.mark.parametrize("name", registry.ALL_BENCHMARKS)
    def test_replay_is_bit_identical(self, name):
        _assert_identical(registry.workload(name), 12_000)

    def test_window_crosses_two_flushes(self):
        # The columns are filled in bulk every 65,536 instructions, at
        # the first block boundary after each mark; 140,000 crosses two.
        trace = _assert_identical(registry.workload("164.gzip"), 140_000)
        assert len(trace) == 140_000

    def test_window_can_land_mid_block(self):
        # Sweep a range of stop counts so some land inside a
        # straight-line region: the engine must fall back to
        # step-decode rather than overshoot the window.
        work = registry.workload("164.gzip")
        for window in range(3_000, 3_000 + 2 * MIN_BLOCK_LENGTH + 3):
            trace = _assert_identical(work, window)
            assert len(trace) == window


class TestAdversarialIdentity:
    # Registry programs never reach a ``jsr``; indirect-call is three
    # ops and a ``jsr`` through a register.
    @pytest.mark.parametrize(
        "member", [member for member in ADVERSARIAL if member.runs],
        ids=lambda member: member.name,
    )
    def test_replay_is_bit_identical(self, member):
        _assert_identical(member)


class TestFaultPaths:
    # Each program opens with a block that faults after two or three
    # ops retired; the rows emitted before the fault and the
    # machine state must match step-decode exactly.  The programs and
    # their recorded rows live in tests/test_trace_columnar.py.
    def test_division_by_zero_mid_block(self):
        _assert_identical(FAULT_PROGRAMS["divide-by-zero-mid-block"])

    def test_unaligned_load_mid_block(self):
        _assert_identical(FAULT_PROGRAMS["unaligned-load-mid-block"])

    def test_unaligned_store_mid_block(self):
        _assert_identical(FAULT_PROGRAMS["unaligned-store-mid-block"])

    def test_call_to_bad_target(self):
        # The jsr writes $ra before its target faults; the registers
        # compared here pin that write.
        _assert_identical(FAULT_PROGRAMS["bad-call-target"])


class TestToggleAndCounters:
    def test_toggle_returns_previous_state(self):
        original = superblock_enabled()
        try:
            assert set_superblock_enabled(False) == original
            assert superblock_enabled() is False
            assert set_superblock_enabled(True) is False
            assert superblock_enabled() is True
        finally:
            set_superblock_enabled(original)

    def test_env_var_disables_replay_at_startup(self):
        # Worker processes inherit REPRO_SUPERBLOCK=0, which is how
        # the CI differential smoke forces a --jobs N run onto the
        # step-decode reference path.
        env = dict(os.environ, REPRO_SUPERBLOCK="0")
        env["PYTHONPATH"] = str(Path(__file__).parent.parent / "src")
        probe = (
            "from repro.emulator.superblock import superblock_enabled;"
            "print(superblock_enabled())"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        assert out.stdout.strip() == "False"
        env["REPRO_SUPERBLOCK"] = "1"
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        assert out.stdout.strip() == "True"

    def test_counters_surface_through_profiler(self):
        work = registry.workload("164.gzip")
        previous = set_superblock_enabled(True)
        try:
            machine = Machine(work.program())
            with profiled() as profiler:
                machine.run(
                    max_instructions=8_000, trace_sink=ColumnarTrace()
                )
            assert profiler.counters["superblock_builds"] > 0
            assert profiler.counters["superblock_replays"] > 0
            replayed = profiler.counters[
                "superblock_replayed_instructions"
            ]
            assert replayed >= (
                MIN_BLOCK_LENGTH
                * profiler.counters["superblock_replays"]
            )
            # Warm templates: continuing the same machine may build a
            # few templates for newly reached code, but replays must
            # dominate — compiled templates are reused, never rebuilt.
            cold_builds = profiler.counters["superblock_builds"]
            with profiled() as warm:
                machine.run(
                    max_instructions=8_000, trace_sink=ColumnarTrace()
                )
            warm_builds = warm.counters.get("superblock_builds", 0)
            assert warm_builds <= cold_builds
            assert warm.counters["superblock_replays"] > warm_builds
        finally:
            set_superblock_enabled(previous)

    def test_disabled_engine_emits_no_counters(self):
        work = registry.workload("164.gzip")
        previous = set_superblock_enabled(False)
        try:
            with profiled() as profiler:
                machine = Machine(work.program())
                machine.run(
                    max_instructions=4_000, trace_sink=ColumnarTrace()
                )
            assert "superblock_replays" not in profiler.counters
        finally:
            set_superblock_enabled(previous)


#: registers the fuzz mutates (away from $sp/$ra/$zero).
_REGS = ["r1", "r2", "r3", "r4"]

_straight_op = st.one_of(
    st.tuples(
        st.sampled_from(["addq", "subq", "mulq", "xor", "sll", "srl",
                         "sra", "cmple", "divq", "remq"]),
        st.sampled_from(_REGS),
        st.sampled_from(_REGS),
        st.sampled_from(_REGS),
    ),
    st.tuples(st.just("lda"), st.sampled_from(_REGS),
              st.integers(-4096, 4096)),
    st.tuples(st.just("stq"), st.sampled_from(_REGS),
              st.integers(0, 31)),
    st.tuples(st.just("ldq"), st.sampled_from(_REGS),
              st.integers(0, 31)),
    st.tuples(st.just("print"), st.sampled_from(_REGS)),
)


#: Register values for the branch fuzz, signed: the negative ones have
#: bit 63 set in the machine's 64-bit registers.
_value = st.one_of(
    st.sampled_from([0, 1, -1, 1 << 62, -(1 << 63), (1 << 63) - 1]),
    st.integers(-(1 << 63), (1 << 63) - 1),
)


def _straight_line(op):
    """Assembly line of one ``_straight_op``."""
    if op[0] == "lda":
        _, rd, imm = op
        return f"    lda {rd}, {imm}(zero)"
    if op[0] in ("stq", "ldq"):
        name, rd, slot = op
        return f"    {name} {rd}, {8 * slot}(sp)"
    if op[0] == "print":
        return f"    print {op[1]}"
    name, ra, rb, rd = op
    return f"    {name} {ra}, {rb}, {rd}"


class TestFuzzIdentity:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(_straight_op, min_size=1, max_size=12),
            min_size=1,
            max_size=4,
        ),
        st.integers(1, 3),
    )
    def test_random_blocks_replay_identically(self, blocks, trips):
        # Random straight-line regions separated by a counted loop, so
        # templates are built once and replayed; divq/remq by a
        # possibly-zero register and sp-relative ldq/stq exercise the
        # fault and memory paths.
        lines = [
            "main:",
            "    lda sp, -256(sp)",
            f"    lda r5, {trips}(zero)",
            "loop:",
        ]
        for block_index, block in enumerate(blocks):
            lines += [_straight_line(op) for op in block]
            # A branch terminates the region between fuzzed blocks.
            lines.append(f"    beq zero, b{block_index}")
            lines.append(f"b{block_index}:")
        lines += [
            "    subq r5, 1, r5",
            "    bne r5, loop",
            "    lda sp, 256(sp)",
            "    halt",
        ]
        _assert_identical("\n".join(lines))

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(_value, min_size=4, max_size=4),
        st.permutations(sorted(CONDITIONAL_BRANCHES)),
        st.lists(
            st.tuples(
                st.lists(_straight_op, max_size=3), st.sampled_from(_REGS)
            ),
            min_size=len(CONDITIONAL_BRANCHES),
            max_size=len(CONDITIONAL_BRANCHES),
        ),
        st.integers(1, 3),
    )
    def test_control_transfers_replay_identically(
        self, values, branches, blocks, trips
    ):
        # One block ends in each conditional branch, testing a fuzzed
        # register (the straight ops reshape the values between trips,
        # so both outcomes occur); then a bsr/ret pair, a jsr through
        # a register to the leaf at text index 0, and a ret to the
        # halt sentinel.
        lines = [
            "leaf:",
            "    addq r6, 1, r6",
            "    ret",
            "main:",
            "    lda sp, -264(sp)",
            "    stq ra, 256(sp)",
        ]
        lines += [
            f"    lda {register}, {value}(zero)"
            for register, value in zip(_REGS, values)
        ]
        lines += [f"    lda r5, {trips}(zero)", "loop:"]
        for index, (branch, (block, register)) in enumerate(
            zip(branches, blocks)
        ):
            lines += [_straight_line(op) for op in block]
            lines += [
                f"    {branch} {register}, t{index}",
                "    addq r6, 2, r6",
                f"t{index}:",
            ]
        lines += [
            "    bsr sub",
            f"    lda r8, {TEXT_BASE}(zero)",
            "    jsr r8",
            "    subq r5, 1, r5",
            "    bne r5, loop",
            "    ldq ra, 256(sp)",
            "    lda sp, 264(sp)",
            "    ret",
            "sub:",
            "    mulq r6, 3, r7",
            "    ret",
        ]
        _assert_identical("\n".join(lines))
