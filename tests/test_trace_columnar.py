"""Gate for the columnar trace the emulator emits.

``Machine.run`` packs each retired instruction straight into
:class:`ColumnarTrace` columns; columns are its only emit path.  Two
checks hold it to the record fields a trace must carry:

* ``trace_columns_golden.json`` stores a SHA-256 digest of every column
  for each registry workload at a 2,000-instruction window and for a
  full mcf run (halt included).  It was recorded at commit 1cca2e0,
  where a record-object emit path still ran beside the column path and
  the two matched field for field on these traces.
* Hypothesis-fuzzed programs: every entry's static fields must equal
  what the :class:`~repro.isa.instructions.Instruction` at its pc
  implies, and its dynamic fields (``next_pc``, ``taken``, ``addr``,
  ``$sp``) must agree with a plain replay of the program's control
  flow and ``$sp`` arithmetic.

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

import pytest
from hypothesis import given, settings, strategies as st

from repro.emulator import Machine, STACK_BASE, TEXT_BASE
from repro.isa import assemble
from repro.isa.registers import SP
from repro.trace.columnar import ColumnarTrace, record_fields
from repro.workloads import ALL_BENCHMARKS, workload

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


def emit(program, max_instructions=None):
    trace = ColumnarTrace()
    Machine(program).run(
        max_instructions=max_instructions, trace_sink=trace
    )
    return trace


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


def _golden_traces():
    """(fixture key, program, window) for every recorded trace."""
    cases = [
        (bench, workload(bench).program(), WINDOW)
        for bench in ALL_BENCHMARKS
    ]
    cases.append((FULL_RUN, workload("mcf").program(), None))
    return cases


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)["traces"]


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
    assert record.displacement == imm
    assert record.is_branch == instr.is_branch
    assert record.is_conditional == instr.is_conditional
    assert record.sp_update == sp_update
    assert record.sp_update_immediate == (
        imm if sp_update and instr.op == "lda" and instr.rb == SP else 0
    )


def assert_trace_consistent(trace, program):
    """Static fields per pc, plus control flow and ``$sp`` replayed.

    The fuzzed programs address memory only through ``$sp`` and set
    ``$sp`` only by ``lda``, from ``$sp`` or from a register an earlier
    ``lda`` derived from ``$sp``.  So the expected ``$sp`` value and
    effective address of every entry follow from the entries before
    it.
    """
    sp = STACK_BASE
    derived = {}  # register -> value an ``lda reg, imm(sp)`` gave it
    pc = TEXT_BASE + 4 * program.label_index(program.entry)
    for index, record in enumerate(trace):
        assert record.index == index
        assert record.pc == pc
        instr = program.instructions[(pc - TEXT_BASE) // 4]
        assert_static_fields(record, instr)
        if instr.op == "lda":
            base = sp if instr.rb == SP else derived[instr.rb]
            if record.dst == SP:
                sp = base + record.displacement
            else:
                derived[record.dst] = base + record.displacement
        elif record.dst is not None:
            derived.pop(record.dst, None)
        assert record.sp_value == sp
        if record.is_load or record.is_store:
            assert record.addr == sp + record.displacement
        else:
            assert record.addr == 0
        if instr.op == "halt":
            assert record.next_pc == pc
        elif record.is_conditional:
            target = TEXT_BASE + 4 * instr.target_index
            assert record.taken == (record.next_pc == target)
            assert record.next_pc in (target, pc + 4)
        else:
            assert not record.taken
            assert record.next_pc == pc + 4
        pc = record.next_pc


class TestFuzzedDifferential:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_step, min_size=1, max_size=30))
    def test_columnar_matches_legacy(self, steps):
        program = assemble(_fuzz_source(steps))
        trace = emit(program)
        assert len(trace) > 0
        assert trace[-1].op == "halt"
        assert_trace_consistent(trace, program)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(_step, min_size=5, max_size=30),
           st.integers(1, 20))
    def test_truncated_window_matches(self, steps, window):
        program = assemble(_fuzz_source(steps))
        full = emit(program)
        truncated = emit(program, max_instructions=window)
        assert len(truncated) == min(window, len(full))
        assert truncated == full[:window]
        assert_trace_consistent(truncated, program)


class TestColumnarContainer:
    """Sequence protocol details the read views rely on."""

    @pytest.fixture(scope="class")
    def trace(self):
        return workload("gzip").trace(max_instructions=1_000)

    def test_len_iter_getitem_agree(self, trace):
        assert len(trace) == 1_000
        records = list(trace)
        assert len(records) == 1_000
        assert record_fields(trace[0]) == record_fields(records[0])
        assert record_fields(trace[-1]) == record_fields(records[-1])

    def test_getitem_out_of_range(self, trace):
        with pytest.raises(IndexError):
            trace[1_000]
        with pytest.raises(IndexError):
            trace[-1_001]

    def test_slice_returns_columnar(self, trace):
        head = trace[:100]
        assert isinstance(head, ColumnarTrace)
        assert len(head) == 100
        for i in range(100):
            assert record_fields(head[i]) == record_fields(trace[i])

    def test_record_index_is_position(self, trace):
        # Slices re-index from zero: index is positional, not global.
        tail = trace[900:]
        assert tail[0].index == 0
        assert trace[900].index == 900
        assert record_fields(tail[0])[1:] == record_fields(trace[900])[1:]

    def test_from_records_passthrough_and_pack(self, trace):
        assert ColumnarTrace.from_records(trace) is trace
        packed = ColumnarTrace.from_records(list(trace))
        assert packed == trace

    def test_eq_against_record_list(self, trace):
        records = list(trace)
        assert trace == records
        records[3] = records[4]
        assert not (trace[:10] == records[:10])

    def test_empty_trace(self):
        empty = ColumnarTrace()
        assert len(empty) == 0
        assert list(empty) == []
        assert empty == []


def record(path: str = GOLDEN_PATH) -> None:
    """Re-run every recorded trace and rewrite the fixture."""
    traces = {
        key: column_digests(emit(program, max_instructions=window))
        for key, program, window in _golden_traces()
    }
    with open(path, "w") as handle:
        json.dump(
            {"window": WINDOW, "traces": traces}, handle, indent=1
        )
        handle.write("\n")


if __name__ == "__main__":
    record()
