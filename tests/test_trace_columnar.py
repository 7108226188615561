"""Gate for the columnar trace the emulator emits.

``Machine.run`` packs each retired instruction straight into
:class:`ColumnarTrace` columns; columns are its only emit path.  Two
checks hold it to the record fields a trace must carry:

* ``trace_columns_golden.json`` stores a SHA-256 digest of every column
  for each registry workload at a 2,000-instruction window and for a
  full mcf run (halt included).  It was recorded at commit 1cca2e0,
  where a record-object emit path still ran beside the column path and
  the two matched field for field on these traces.  When the trace
  dropped its ``disp`` and ``next_pc`` columns, which no consumer
  read, their keys were deleted from every entry of the fixture (the
  ``faults`` section's included); every other value is as recorded.
  Its ``faults`` section holds the rows, ``instruction_count``,
  ``pc`` and error of seven programs that fault: four in the middle
  of a straight-line block, one on a bad jump target, one on a bad
  call target and one on a pc out of range.  Both the step path and
  superblock replay must reproduce them.
* Hypothesis-fuzzed programs: every entry's static fields must equal
  what the :class:`~repro.isa.instructions.Instruction` at its pc
  implies, and its dynamic fields (``taken``, ``addr``, ``$sp``) and
  the pc that follows it (the next row's ``pc``; after the last row,
  the machine's pc) must agree with a plain replay of the program's
  control flow and ``$sp`` arithmetic, which takes each displacement
  from the instruction at the row's pc.
* Chunked runs: any split of a run into ``run(max_instructions=k)``
  calls, into one trace or into a fresh trace per call, concatenates
  to the one-shot trace, at windows that cross the emulator's
  65,536-instruction flush.

After a deliberate change to the emitted columns, re-record from the
repository root with ``PYTHONPATH=src python -m
tests.test_trace_columnar`` and commit the new fixture together with
the change that explains it.
"""

import hashlib
import json
import os
import sys
from array import array
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.emulator import Machine, STACK_BASE, TEXT_BASE
from repro.emulator.machine import EmulatorError
from repro.emulator.memory import MemoryError_
from repro.emulator.superblock import set_superblock_enabled
from repro.isa import assemble
from repro.isa.registers import SP
from repro.trace.columnar import ColumnarTrace
from repro.workloads import ALL_BENCHMARKS, workload

from tests.trace_records import next_pcs, pack, record_at, records

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "trace_columns_golden.json"
)

WINDOW = 2_000

#: Fixture key of the full (unwindowed) mcf run.
FULL_RUN = "181.mcf/full"

#: registers the fuzz uses (caller-saved temps, away from $sp/$ra)
REGS = ["r1", "r2", "r3", "r4", "r5"]

ALU_OPS = ["addq", "subq", "mulq", "and", "or", "xor",
           "sll", "srl", "cmpeq", "cmplt"]

#: Programs that fault, keyed as in the fixture's ``faults`` section.
#: Each opens with a straight-line block of at least three ops, so
#: superblock replay runs it as a template.
FAULT_PROGRAMS = {
    # The divide faults after two ops of the block retired.
    "divide-by-zero-mid-block": """
        main:
            lda r1, 7(zero)
            lda r2, 0(zero)
            divq r1, r2, r3
            print r3
            halt
        """,
    "unaligned-load-mid-block": """
        main:
            lda r1, 64(zero)
            lda r2, 1(zero)
            ldq r3, 0(r2)
            print r3
            halt
        """,
    "unaligned-store-mid-block": """
        main:
            lda r1, 5(zero)
            lda r2, 12(zero)
            stq r1, 1(r2)
            print r1
            halt
        """,
    # The faulting block follows a block that stored, so the replay
    # that faults is not the first memory row since the last fill.
    "unaligned-store-after-a-store": """
        main:
            lda sp, -16(sp)
            lda r1, 5(zero)
            stq r1, 8(sp)
            br next
        next:
            ldq r2, 8(sp)
            lda r3, 1(zero)
            stq r2, 1(r3)
            halt
        """,
    # jmp to an address that is not a multiple of four.
    "bad-jump-target": """
        main:
            lda r1, 4096(zero)
            lda r2, 2(zero)
            addq r1, r2, r3
            jmp r3
            halt
        """,
    # jsr to an address that is not a multiple of four: $ra is
    # written, and the call faults without retiring.
    "bad-call-target": """
        main:
            lda r1, 4096(zero)
            lda r2, 2(zero)
            addq r1, r2, r3
            jsr r3
            halt
        """,
    # jmp to instruction index 1024, past the end of the text: the jmp
    # retires, and the fetch after it faults.
    "pc-out-of-range": """
        main:
            lda sp, -16(sp)
            lda r1, 8192(zero)
            stq r1, 8(sp)
            jmp r1
            halt
        """,
}


def traced_run(program, max_instructions=None):
    """The trace of one run and the pc the machine stopped at."""
    machine = Machine(program)
    trace = ColumnarTrace()
    machine.run(max_instructions=max_instructions, trace_sink=trace)
    return trace, machine.pc


def emit(program, max_instructions=None):
    return traced_run(program, max_instructions)[0]


def column_digests(trace):
    """Length plus a SHA-256 per column over its little-endian bytes."""
    digests = {"length": len(trace)}
    for name in ColumnarTrace.__slots__:
        column = getattr(trace, name)
        if isinstance(column, array) and sys.byteorder == "big":
            column = array(column.typecode, column)
            column.byteswap()
        digests[name] = hashlib.sha256(bytes(column)).hexdigest()
    return digests


def fault_rows(source, replay):
    """Run ``source`` into the fault it raises; what it left behind."""
    previous = set_superblock_enabled(replay)
    try:
        machine = Machine(assemble(source))
        trace = ColumnarTrace()
        with pytest.raises((EmulatorError, MemoryError_)) as error:
            machine.run(trace_sink=trace)
    finally:
        set_superblock_enabled(previous)
    return {
        "columns": column_digests(trace),
        "instruction_count": machine.instruction_count,
        "pc": machine.pc,
        "error": f"{error.type.__name__}: {error.value}",
    }


def _golden_traces():
    """(fixture key, program, window) for every recorded trace."""
    cases = [
        (bench, workload(bench).program(), WINDOW)
        for bench in ALL_BENCHMARKS
    ]
    cases.append((FULL_RUN, workload("mcf").program(), None))
    return cases


def _load_golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def golden():
    return _load_golden()["traces"]


@pytest.fixture(scope="module")
def golden_faults():
    return _load_golden()["faults"]


class TestWorkloadDifferential:
    """Every registry workload reproduces its recorded columns."""

    # (param is named ``bench``: pytest-benchmark owns ``benchmark``.)
    @pytest.mark.parametrize("bench", ALL_BENCHMARKS)
    def test_columnar_matches_legacy(self, bench, golden):
        trace = emit(workload(bench).program(), max_instructions=WINDOW)
        assert len(trace) == WINDOW
        assert column_digests(trace) == golden[bench]

    def test_full_run_including_halt(self, golden):
        # No window: the trace covers the halt path too.
        program = workload("mcf").program()
        machine = Machine(program)
        trace = ColumnarTrace()
        machine.run(trace_sink=trace)
        assert machine.halted
        assert column_digests(trace) == golden[FULL_RUN]


class TestFaultRows:
    """A fault emits the rows before it and advances no counter."""

    @pytest.mark.parametrize("replay", [True, False],
                             ids=["replay", "step"])
    @pytest.mark.parametrize("name", sorted(FAULT_PROGRAMS))
    def test_fault_matches_golden(self, name, replay, golden_faults):
        rows = fault_rows(FAULT_PROGRAMS[name], replay)
        assert rows == golden_faults[name]


# --- fuzzed programs: ALU ops, stack memory traffic, $sp updates, ----
# --- and forward conditional branches (always terminating). ----------

_alu = st.one_of(
    st.tuples(st.just("alu"), st.sampled_from(ALU_OPS),
              st.sampled_from(REGS), st.sampled_from(REGS),
              st.sampled_from(REGS)),
    st.tuples(st.just("alui"), st.sampled_from(ALU_OPS),
              st.sampled_from(REGS), st.integers(-200, 200),
              st.sampled_from(REGS)),
)
_memory = st.one_of(
    st.tuples(st.just("store"), st.sampled_from(REGS),
              st.integers(0, 15)),
    st.tuples(st.just("load"), st.sampled_from(REGS),
              st.integers(0, 15)),
)
_branch = st.tuples(st.just("branch"), st.sampled_from(["beq", "bne"]),
                    st.sampled_from(REGS))
_sp_adjust = st.tuples(st.just("sp"), st.sampled_from([-32, -16, 16, 32]))
_sp_via_register = st.tuples(st.just("sp_reg"),
                             st.sampled_from([-32, -16, 16, 32]))

_step = st.one_of(_alu, _memory, _branch, _sp_adjust, _sp_via_register)


def _fuzz_source(steps):
    # Reserve a frame so loads/stores and $sp wiggles stay in bounds.
    lines = ["main:", "    lda sp, -512(sp)"]
    for i, item in enumerate(steps):
        kind = item[0]
        if kind == "alu":
            _, op, ra, rb, rd = item
            lines.append(f"    {op} {ra}, {rb}, {rd}")
        elif kind == "alui":
            _, op, ra, imm, rd = item
            lines.append(f"    {op} {ra}, {imm}, {rd}")
        elif kind == "store":
            _, reg, slot = item
            lines.append(f"    stq {reg}, {8 * slot}(sp)")
        elif kind == "load":
            _, reg, slot = item
            lines.append(f"    ldq {reg}, {8 * slot}(sp)")
        elif kind == "branch":
            # Forward branch over one filler instruction: exercises
            # taken and not-taken conditional records, terminates.
            _, op, reg = item
            lines.append(f"    {op} {reg}, skip_{i}")
            lines.append("    addq r1, 1, r1")
            lines.append(f"skip_{i}:")
        elif kind == "sp":  # sp wiggle inside the reserved frame
            _, imm = item
            lines.append(f"    lda sp, {imm}(sp)")
            lines.append(f"    lda sp, {-imm}(sp)")
        else:  # the same wiggle, with $sp set through another register
            _, imm = item
            lines.append(f"    lda r5, {imm - 8}(sp)")
            lines.append("    lda sp, 8(r5)")
            lines.append(f"    lda sp, {-imm}(sp)")
    lines.append("    lda sp, 512(sp)")
    lines.append("    halt")
    return "\n".join(lines)


def assert_static_fields(record, instr):
    """The record fields fixed by the instruction at its pc."""
    dst = instr.destination_register()
    imm = instr.imm if instr.imm is not None else 0
    sp_update = dst == SP
    assert record.op == instr.op
    # op_class must be the shared singleton, not a reconstruction.
    assert record.op_class is instr.op_class
    assert record.srcs == tuple(instr.source_registers())
    assert record.dst == dst
    assert record.is_load == instr.is_load
    assert record.is_store == instr.is_store
    assert record.size == instr.spec.mem_size
    assert record.base_reg == (instr.rb if instr.is_mem else None)
    assert record.is_branch == instr.is_branch
    assert record.is_conditional == instr.is_conditional
    assert record.sp_update == sp_update
    assert record.sp_update_immediate == (
        imm if sp_update and instr.op == "lda" and instr.rb == SP else 0
    )


def assert_trace_consistent(trace, program, stop_pc):
    """Static fields per pc, plus control flow and ``$sp`` replayed.

    The fuzzed programs address memory only through ``$sp`` and set
    ``$sp`` only by ``lda``, from ``$sp`` or from a register an earlier
    ``lda`` derived from ``$sp``.  So the expected ``$sp`` value and
    effective address of every entry follow from the entries before
    it.  ``stop_pc`` is the pc the machine stopped at: what follows
    the last entry.
    """
    sp = STACK_BASE
    derived = {}  # register -> value an ``lda reg, imm(sp)`` gave it
    pc = TEXT_BASE + 4 * program.label_index(program.entry)
    for record, next_pc in zip(records(trace), next_pcs(trace, stop_pc)):
        assert record.pc == pc
        instr = program.instructions[(pc - TEXT_BASE) // 4]
        assert_static_fields(record, instr)
        displacement = instr.imm if instr.imm is not None else 0
        if instr.op == "lda":
            base = sp if instr.rb == SP else derived[instr.rb]
            if record.dst == SP:
                sp = base + displacement
            else:
                derived[record.dst] = base + displacement
        elif record.dst is not None:
            derived.pop(record.dst, None)
        assert record.sp_value == sp
        if record.is_load or record.is_store:
            assert record.addr == sp + displacement
        else:
            assert record.addr == 0
        if instr.op == "halt":
            assert next_pc == pc
        elif record.is_conditional:
            target = TEXT_BASE + 4 * instr.target_index
            assert record.taken == (next_pc == target)
            assert next_pc in (target, pc + 4)
        else:
            assert not record.taken
            assert next_pc == pc + 4
        pc = next_pc


class TestFuzzedDifferential:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_step, min_size=1, max_size=30))
    def test_columnar_matches_legacy(self, steps):
        program = assemble(_fuzz_source(steps))
        trace, stop_pc = traced_run(program)
        assert len(trace) > 0
        assert record_at(trace, -1).op == "halt"
        assert_trace_consistent(trace, program, stop_pc)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(_step, min_size=5, max_size=30),
           st.integers(1, 20))
    def test_truncated_window_matches(self, steps, window):
        program = assemble(_fuzz_source(steps))
        full = emit(program)
        truncated, stop_pc = traced_run(program, max_instructions=window)
        assert len(truncated) == min(window, len(full))
        assert truncated == full[:window]
        assert_trace_consistent(truncated, program, stop_pc)


# --- chunked runs: every split concatenates to the one-shot trace ----

#: One-shot window of the workload chunk property.  It crosses the
#: emulator's 65,536-instruction flush, and so do its larger chunks.
CHUNK_WINDOW = 70_000


def _concatenate(traces):
    joined = ColumnarTrace()
    for trace in traces:
        for name in ColumnarTrace.__slots__:
            getattr(joined, name).extend(getattr(trace, name))
    return joined


def run_chunked(program, chunks, window=None, fresh=False):
    """Run ``program`` in ``run(max_instructions=k)`` calls.

    ``chunks`` are the leading call sizes; one last call runs what is
    left of ``window`` (to the halt when ``window`` is None).  With
    ``fresh`` every call gets its own trace, joined afterwards.
    """
    machine = Machine(program)
    traces = [ColumnarTrace()]
    used = 0
    sizes = list(chunks) + [None]
    for size in sizes:
        if window is not None:
            left = window - used
            size = left if size is None else min(size, left)
        if fresh:
            traces.append(ColumnarTrace())
        used += machine.run(max_instructions=size, trace_sink=traces[-1])
    assert machine.instruction_count == used
    return _concatenate(traces) if fresh else traces[-1]


@lru_cache(maxsize=None)
def _one_shot_digests(bench):
    program = workload(bench).program()
    return column_digests(emit(program, max_instructions=CHUNK_WINDOW))


_chunk_sizes = st.lists(st.integers(1, CHUNK_WINDOW), min_size=1,
                        max_size=4)


class TestChunkedRuns:
    @settings(max_examples=8, deadline=None)
    @given(st.sampled_from(ALL_BENCHMARKS), _chunk_sizes, st.booleans())
    def test_workload_chunks_concatenate(self, bench, chunks, fresh):
        program = workload(bench).program()
        chunked = run_chunked(program, chunks, CHUNK_WINDOW, fresh)
        assert column_digests(chunked) == _one_shot_digests(bench)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(_step, min_size=1, max_size=30),
           st.lists(st.integers(0, 40), min_size=1, max_size=6),
           st.booleans(), st.booleans())
    def test_fuzzed_chunks_concatenate(self, steps, chunks, fresh,
                                       replay):
        program = assemble(_fuzz_source(steps))
        previous = set_superblock_enabled(replay)
        try:
            chunked = run_chunked(program, chunks, fresh=fresh)
            full = emit(program)
        finally:
            set_superblock_enabled(previous)
        assert chunked == full


class TestColumnarContainer:
    """The container protocol: length, slices and equality."""

    @pytest.fixture(scope="class")
    def trace(self):
        return workload("gzip").trace(max_instructions=1_000)

    def test_slice_returns_columnar(self, trace):
        head = trace[:100]
        assert isinstance(head, ColumnarTrace)
        assert len(head) == 100
        for name in ColumnarTrace.__slots__:
            assert getattr(head, name) == getattr(trace, name)[:100]

    def test_record_view_round_trips(self, trace):
        # The tests' record view holds every column of a row.
        assert pack(records(trace)) == trace

    def test_only_slices_index(self, trace):
        # An int must not fall through to the column loop.
        for index in (0, -1, "pc"):
            with pytest.raises(TypeError, match="must be slices"):
                trace[index]
        with pytest.raises(TypeError):
            list(trace)

    def test_empty_trace(self):
        empty = ColumnarTrace()
        assert len(empty) == 0
        assert list(records(empty)) == []
        assert empty == ColumnarTrace()
        assert empty != []


def record(path: str = GOLDEN_PATH) -> None:
    """Re-run every recorded trace and rewrite the fixture.

    Fault rows come from the step path, the reference.
    """
    traces = {
        key: column_digests(emit(program, max_instructions=window))
        for key, program, window in _golden_traces()
    }
    faults = {
        name: fault_rows(source, replay=False)
        for name, source in sorted(FAULT_PROGRAMS.items())
    }
    with open(path, "w") as handle:
        json.dump(
            {"window": WINDOW, "traces": traces, "faults": faults},
            handle,
            indent=1,
        )
        handle.write("\n")


if __name__ == "__main__":
    record()
