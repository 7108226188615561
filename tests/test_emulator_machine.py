"""Unit tests for the functional emulator."""

import pytest

from repro.emulator import EmulatorError, Machine, STACK_BASE, run_program
from repro.isa import assemble
from repro.isa.registers import SP

from tests.trace_records import record_at, records


def run_source(source, max_instructions=None):
    program = assemble(source)
    return run_program(program, max_instructions=max_instructions)


def alu_result(op, left, right):
    machine, _ = run_source(
        f"""
        main:
            lda r1, {left}(zero)
            lda r2, {right}(zero)
            {op} r1, r2, r3
            print r3
            halt
        """
    )
    return machine.output[0]


class TestALUSemantics:
    @pytest.mark.parametrize(
        "op,left,right,expected",
        [
            ("addq", 2, 3, 5),
            ("addq", -2, 3, 1),
            ("subq", 2, 5, -3),
            ("mulq", -4, 6, -24),
            ("divq", 7, 2, 3),
            ("divq", -7, 2, -3),  # C-style truncation toward zero
            ("remq", 7, 2, 1),
            ("remq", -7, 2, -1),
            ("and", 12, 10, 8),
            ("or", 12, 10, 14),
            ("xor", 12, 10, 6),
            ("bic", 12, 10, 4),
            ("sll", 3, 4, 48),
            ("srl", 48, 4, 3),
            ("sra", -16, 2, -4),
            ("cmpeq", 5, 5, 1),
            ("cmpeq", 5, 6, 0),
            ("cmplt", -1, 0, 1),
            ("cmplt", 0, 0, 0),
            ("cmple", 0, 0, 1),
            ("cmpult", 1, 2, 1),
        ],
    )
    def test_binary_op(self, op, left, right, expected):
        assert alu_result(op, left, right) == expected

    def test_cmpult_treats_negative_as_large(self):
        assert alu_result("cmpult", -1, 1) == 0

    def test_srl_is_logical(self):
        machine, _ = run_source(
            """
            main:
                lda r1, -1(zero)
                srl r1, 63, r2
                print r2
                halt
            """
        )
        assert machine.output[0] == 1

    def test_division_by_zero_raises(self):
        with pytest.raises(EmulatorError, match="division"):
            run_source("main:\n lda r1, 1(zero)\n divq r1, zero, r2\n halt")

    def test_64_bit_wraparound(self):
        machine, _ = run_source(
            """
            main:
                lda r1, 1(zero)
                sll r1, 63, r1
                addq r1, r1, r2
                print r2
                halt
            """
        )
        assert machine.output[0] == 0


class TestControlFlow:
    def test_conditional_branches(self):
        machine, _ = run_source(
            """
            main:
                lda r1, -5(zero)
                blt r1, neg
                print zero
                halt
            neg:
                lda r2, 1(zero)
                print r2
                halt
            """
        )
        assert machine.output == [1]

    def test_loop_counts(self):
        machine, _ = run_source(
            """
            main:
                lda r1, 0(zero)
            loop:
                addq r1, 1, r1
                cmplt r1, 10, r2
                bne r2, loop
                print r1
                halt
            """
        )
        assert machine.output == [10]

    def test_bsr_ret_nesting(self):
        machine, _ = run_source(
            """
            main:
                lda sp, -16(sp)
                stq ra, 0(sp)
                bsr outer
                print v0
                ldq ra, 0(sp)
                lda sp, 16(sp)
                halt
            outer:
                lda sp, -16(sp)
                stq ra, 0(sp)
                bsr inner
                addq v0, 1, v0
                ldq ra, 0(sp)
                lda sp, 16(sp)
                ret
            inner:
                lda v0, 41(zero)
                ret
            """
        )
        assert machine.output == [42]

    def test_jsr_indirect_call(self):
        machine, _ = run_source(
            """
            main:
                lda sp, -16(sp)
                stq ra, 0(sp)
                lda r4, target
                sll r4, 2, r4
                addq r4, 4096, r4
                jsr r4
                print v0
                halt
            target:
                lda v0, 9(zero)
                ret
            """.replace("lda r4, target", "lda r4, 8(zero)")
        )
        # target label is instruction index 8 -> address 4096 + 4*8
        assert machine.output == [9]

    def test_bad_jump_raises(self):
        with pytest.raises(EmulatorError, match="jump"):
            run_source("main:\n lda r4, 3(zero)\n jmp r4")

    def test_ret_from_main_halts(self):
        machine, _ = run_source("main:\n lda v0, 0(zero)\n ret")
        assert machine.halted


class TestMachineState:
    def test_sp_initialized_to_stack_base(self):
        program = assemble("main: halt")
        machine = Machine(program)
        assert machine.registers[SP] == STACK_BASE

    def test_instruction_limit_stops_run(self):
        machine, trace = run_source(
            "main:\n br main", max_instructions=25
        )
        assert machine.instruction_count == 25
        assert not machine.halted
        assert len(trace) == 25

    def test_run_resumes_after_limit(self):
        program = assemble(
            """
            main:
                lda r1, 0(zero)
            loop:
                addq r1, 1, r1
                br loop
            """
        )
        machine = Machine(program)
        machine.run(max_instructions=10)
        count_first = machine.instruction_count
        machine.run(max_instructions=10)
        assert machine.instruction_count == count_first + 10

    def test_zero_register_cannot_be_written(self):
        machine, _ = run_source(
            "main:\n lda zero, 5(zero)\n print zero\n halt"
        )
        assert machine.output == [0]

    def test_data_segment_loaded(self):
        machine, _ = run_source(
            """
            .data
            value: .quad 77
            .text
            main:
                lda r1, value
                ldq r2, 0(r1)
                print r2
                halt
            """
        )
        assert machine.output == [77]


class TestTraceRecords:
    def test_memory_record_fields(self):
        _, trace = run_source(
            """
            main:
                lda sp, -16(sp)
                stq ra, 8(sp)
                ldq r1, 8(sp)
                lda sp, 16(sp)
                halt
            """
        )
        store = record_at(trace, 1)
        assert store.is_store and store.size == 8
        assert store.base_reg == SP
        assert store.addr == STACK_BASE - 16 + 8
        load = record_at(trace, 2)
        assert load.is_load and load.addr == store.addr

    def test_sp_update_records(self):
        _, trace = run_source(
            "main:\n lda sp, -32(sp)\n lda sp, 32(sp)\n halt"
        )
        updates = [r for r in records(trace) if r.sp_update]
        assert [r.sp_update_immediate for r in updates] == [-32, 32]
        assert updates[0].sp_value == STACK_BASE - 32
        assert updates[1].sp_value == STACK_BASE

    def test_branch_records(self):
        _, trace = run_source(
            """
            main:
                lda r1, 1(zero)
                beq r1, skip
                bne r1, skip
            skip:
                halt
            """
        )
        beq, bne, halt = (record_at(trace, i) for i in (1, 2, 3))
        assert beq.is_conditional and not beq.taken
        assert bne.is_conditional and bne.taken
        # Fall-through, then the taken branch lands on its target.
        assert bne.pc == beq.pc + 4
        assert halt.op == "halt" and halt.pc == bne.pc + 4

    def test_indices_are_sequential(self, recursive_run):
        _, trace = recursive_run
        assert [r.index for r in records(trace[:100])] == list(range(100))

    def test_only_columnar_sinks_are_accepted(self):
        program = assemble("main:\n    halt\n")
        with pytest.raises(TypeError, match="ColumnarTrace or None, not list"):
            Machine(program).run(trace_sink=[])
