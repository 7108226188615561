"""Static SVF-traffic predictor (repro.analysis.predict) tests."""

from repro.analysis.predict import predict_program
from repro.harness.prediction import check_workload
from repro.isa import Instruction
from repro.isa.assembler import assemble
from repro.isa.registers import SP
from repro.workloads import workload


class TestStaticBounds:
    def test_workload_program_is_analyzable(self):
        prediction = predict_program(workload("mcf").program())
        assert prediction.analyzable and not prediction.reasons
        assert prediction.functions
        for bounds in prediction.functions.values():
            assert bounds.frame_bytes >= 0
            # The union bounds dominate their parts.
            assert bounds.fill_avoid_bound >= bounds.full_store_granules
            assert bounds.writeback_kill_bound >= bounds.store_granules
            assert bounds.full_store_granules <= bounds.store_granules
            # A granule can only be validated fill-free if it can also
            # be dirtied: the fill bound never exceeds the kill bound.
            assert bounds.fill_avoid_bound <= bounds.writeback_kill_bound

    def test_totals_sum_over_functions(self):
        prediction = predict_program(workload("gzip").program())
        assert prediction.total_fill_avoid_bound == sum(
            p.fill_avoid_bound for p in prediction.functions.values()
        )
        assert prediction.total_writeback_kill_bound == sum(
            p.writeback_kill_bound for p in prediction.functions.values()
        )


class TestUnanalyzable:
    def test_frame_errors_poison_the_prediction(self):
        program = workload("mcf").program()
        for index, instruction in enumerate(program.instructions):
            if instruction.is_sp_adjust and instruction.imm > 0:
                program.instructions[index] = Instruction(
                    "lda", rd=SP, rb=SP, imm=instruction.imm + 16
                )
                break
        prediction = predict_program(program)
        assert not prediction.analyzable
        assert prediction.reasons

    def test_misaligned_frame_is_rejected(self):
        # Granule attribution assumes 8-byte-aligned $sp motion.
        program = assemble(
            """
            .text
            __start:
                bsr main
                halt
            main:
                lda sp, -12(sp)
                lda v0, 0(zero)
                lda sp, 12(sp)
                ret
            """,
            entry="__start",
        )
        prediction = predict_program(program)
        assert not prediction.analyzable
        assert any("granule-aligned" in r for r in prediction.reasons)

    def test_escaping_stack_address_is_rejected(self):
        # A stack address stored to non-stack memory can outlive its
        # frame; per-activation attribution is no longer sound.
        program = assemble(
            """
            .data
            cell: .quad 0

            .text
            __start:
                bsr main
                halt
            main:
                lda sp, -16(sp)
                lda t0, 8(sp)
                lda t1, cell
                stq t0, 0(t1)
                lda v0, 0(zero)
                lda sp, 16(sp)
                ret
            """,
            entry="__start",
        )
        prediction = predict_program(program)
        assert not prediction.analyzable
        assert any("escapes" in r for r in prediction.reasons)

    def test_zero_write_stores_no_stack_address(self):
        # A write to $zero is discarded, so storing $zero afterwards
        # stores 0, not the stack address.
        program = assemble(
            """
            .text
            __start:
                bsr main
                halt
            main:
                lda sp, -16(sp)
                lda zero, 8(sp)
                stq zero, 0(t0)
                lda sp, 16(sp)
                ret
            """,
            entry="__start",
        )
        prediction = predict_program(program)
        assert prediction.analyzable, prediction.reasons


class TestDynamicCrossCheck:
    def test_bounds_dominate_full_run_measurements(self):
        # The tentpole soundness property on one full workload run:
        # predicted >= measured for both counters at both levels, with
        # bit-identical outputs and reduced $sp traffic at -O1.
        row = check_workload("mcf")
        assert row.bounds_hold
        assert row.outputs_identical
        assert row.traffic_reduced
        for level in (0, 1):
            m = row.levels[level]
            assert m.analyzable and m.halted
            assert m.measured_fills_avoided <= m.predicted_fills_avoided
            assert (m.measured_writebacks_killed
                    <= m.predicted_writebacks_killed)

    def test_bounds_hold_under_window_pressure(self):
        # A tiny SVF slides its window constantly (evictions strip
        # freshness); the static bounds must still dominate.
        row = check_workload(
            "gzip", max_instructions=150_000, capacity_bytes=256
        )
        assert row.bounds_hold
