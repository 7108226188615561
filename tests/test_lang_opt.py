"""Unit tests for the -O1 optimizer pipeline (repro.lang.opt).

``opt_golden.json`` pins, for every registry input, the SHA-256 of the
rendered -O1 program and every ``OptStats`` field.  After a deliberate
change to the optimizer's output, re-record it with
``PYTHONPATH=src python -m tests.test_lang_opt``.
"""

import dataclasses
import hashlib
import json
import os

import pytest

from repro.analysis import lint_program
from repro.emulator import run_program
from repro.isa import Instruction
from repro.isa.assembler import assemble
from repro.isa.printer import render_program
from repro.isa.registers import SP, V0
from repro.lang import compile_program
from repro.lang.codegen import CodegenOptions, compile_to_assembly
from repro.lang.opt import optimize_program
from repro.lang.opt.ir import EditSet, rebuild_program
from repro.workloads import all_inputs, workload

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "opt_golden.json")


class TestEditSet:
    def test_delete_wins_over_replace(self):
        edits = EditSet()
        edits.replace(3, Instruction("nop"))
        edits.delete(3)
        assert 3 in edits.deletions and 3 not in edits.replacements
        # ... in either order.
        edits.replace(3, Instruction("nop"))
        assert 3 not in edits.replacements

    def test_merge_respects_deletions(self):
        left = EditSet()
        left.delete(1)
        right = EditSet()
        right.replace(1, Instruction("nop"))
        right.replace(2, Instruction("nop"))
        left.merge(right)
        assert left.deletions == {1}
        assert set(left.replacements) == {2}

    def test_bool_and_len(self):
        edits = EditSet()
        assert not edits and len(edits) == 0
        edits.delete(0)
        edits.replace(4, Instruction("nop"))
        assert edits and len(edits) == 2


class TestRebuildProgram:
    ASM = """
    .text
    __start:
        bsr main
        halt
    main:
        lda sp, -16(sp)
        lda t0, 1(zero)
        lda t0, 2(zero)
        beq zero, skip
        lda t0, 3(zero)
    skip:
        addq t0, 0, v0
        lda sp, 16(sp)
        ret
    """

    def test_branch_targets_remap_over_deletions(self):
        program = assemble(self.ASM, entry="__start")
        # Delete the first `lda t0, 1(zero)` (index 3): everything
        # after shifts down one; the branch target must follow.
        target_before = next(
            i.target_index for i in program.instructions
            if i.op == "beq"
        )
        edits = EditSet()
        edits.delete(3)
        rebuilt = rebuild_program(program, edits)
        assert len(rebuilt) == len(program) - 1
        target_after = next(
            i.target_index for i in rebuilt.instructions if i.op == "beq"
        )
        assert target_after == target_before - 1
        assert rebuilt.labels["skip"] == program.labels["skip"] - 1

    def test_deleted_branch_target_maps_to_next_survivor(self):
        program = assemble(self.ASM, entry="__start")
        # Delete the instruction *at* the branch target: the branch
        # must land on the next surviving instruction (no-op effect).
        target = next(
            i.target_index for i in program.instructions if i.op == "beq"
        )
        edits = EditSet()
        edits.delete(target)
        rebuilt = rebuild_program(program, edits)
        new_target = next(
            i.target_index for i in rebuilt.instructions if i.op == "beq"
        )
        # Next survivor after the old target is the instruction that
        # previously followed it, now shifted into the target's slot.
        assert rebuilt.instructions[new_target].op == \
            program.instructions[target + 1].op

    def test_original_program_is_not_mutated(self):
        program = assemble(self.ASM, entry="__start")
        before = [i.op for i in program.instructions]
        edits = EditSet()
        edits.delete(3)
        rebuild_program(program, edits)
        assert [i.op for i in program.instructions] == before


REDUNDANT = """
int main() {
    int x; int y;
    x = 6;
    y = 7;
    print(x * y);
    return 0;
}
"""


class TestPipeline:
    def test_removes_traffic_and_preserves_semantics(self):
        baseline = compile_program(REDUNDANT)
        optimized, stats = optimize_program(baseline)
        assert not stats.skipped
        assert stats.instructions_removed > 0
        assert len(optimized) < len(baseline)
        ran0, _ = run_program(baseline, max_instructions=100_000)
        ran1, _ = run_program(optimized, max_instructions=100_000)
        assert ran0.halted and ran1.halted
        assert ran0.output == ran1.output == [42]
        assert ran0.registers[V0] == ran1.registers[V0]

    def test_output_is_lint_clean(self):
        optimized, _ = optimize_program(compile_program(REDUNDANT))
        report = lint_program(optimized, name="redundant-O1")
        assert report.ok and not report.warnings

    def test_unbalanced_sp_disables_everything(self):
        program = compile_program(REDUNDANT)
        for index, instruction in enumerate(program.instructions):
            if instruction.is_sp_adjust and instruction.imm > 0:
                program.instructions[index] = Instruction(
                    "lda", rd=SP, rb=SP, imm=instruction.imm + 16
                )
                break
        optimized, stats = optimize_program(program)
        assert stats.skipped
        assert stats.instructions_removed == 0
        assert optimized is program

    def test_first_read_disables_memory_passes_only(self):
        # main reads a frame slot it never wrote: the memory image is
        # observable, so dead-store elimination and coalescing must
        # stay off while register-only passes may still run.
        program = assemble(
            """
            .text
            __start:
                bsr main
                halt
            main:
                lda sp, -16(sp)
                ldq t0, 8(sp)
                addq t0, 0, v0
                lda sp, 16(sp)
                ret
            """,
            entry="__start",
        )
        _optimized, stats = optimize_program(program)
        assert stats.memory_passes_disabled
        assert stats.dead_stores_deleted == 0
        assert stats.slots_coalesced == 0

    def test_divide_by_zero_trap_is_preserved(self):
        # divq's result is dead, but deleting it would erase the trap.
        program = assemble(
            """
            .text
            __start:
                bsr main
                halt
            main:
                lda sp, -16(sp)
                lda t0, 1(zero)
                divq t0, zero, t1
                lda v0, 0(zero)
                lda sp, 16(sp)
                ret
            """,
            entry="__start",
        )
        optimized, _stats = optimize_program(program)
        assert any(i.op == "divq" for i in optimized.instructions)


class TestCodegenIntegration:
    def test_opt_level_gates_the_pipeline(self):
        source = workload("mcf").source()
        baseline = compile_program(source, CodegenOptions(opt_level=0))
        default = compile_program(source)
        assert len(default) == len(baseline)
        optimized = compile_program(source, CodegenOptions(opt_level=1))
        assert len(optimized) < len(baseline)

    def test_assembly_matches_optimized_program(self):
        # What `--emit asm` prints at -O1 assembles to exactly what
        # compile_program executes at -O1.
        source = workload("gzip").source()
        options = CodegenOptions(opt_level=1)
        program = compile_program(source, options)
        reassembled = assemble(
            compile_to_assembly(source, options), entry="__start"
        )
        assert [i.render() for i in reassembled.instructions] == \
            [i.render() for i in program.instructions]
        assert reassembled.labels == program.labels


class TestPrinterRoundTrip:
    @pytest.mark.parametrize("name", ["mcf", "gzip", "crafty"])
    def test_render_assemble_round_trip(self, name):
        program = workload(name).program()
        rebuilt = assemble(render_program(program), entry=program.entry)
        assert [i.render() for i in rebuilt.instructions] == \
            [i.render() for i in program.instructions]
        assert rebuilt.labels == program.labels
        assert bytes(rebuilt.data) == bytes(program.data)
        assert rebuilt.symbols == program.symbols


def _optimized_inputs() -> dict:
    """Each registry input's -O1 program and stats, as
    ``compile_program`` builds them."""
    return {w.full_name: optimize_program(w.program()) for w in all_inputs()}


def _golden_row(program, stats) -> dict:
    return {
        "render_sha256": hashlib.sha256(
            render_program(program).encode()
        ).hexdigest(),
        "stats": dataclasses.asdict(stats),
    }


_INPUT_NAMES = [w.full_name for w in all_inputs()]


class TestRegistryOutput:
    @pytest.fixture(scope="class")
    def optimized(self):
        return _optimized_inputs()

    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN_PATH) as handle:
            return json.load(handle)

    @pytest.mark.parametrize("full_name", _INPUT_NAMES)
    def test_matches_golden(self, full_name, optimized, golden):
        assert _golden_row(*optimized[full_name]) == golden[full_name]

    @pytest.mark.parametrize("full_name", _INPUT_NAMES)
    def test_output_is_a_fixpoint(self, full_name, optimized):
        # Re-optimizing -O1 output finds nothing left to remove,
        # forward or coalesce.
        program, _stats = optimized[full_name]
        again, stats = optimize_program(program)
        assert stats.instructions_removed == 0
        assert stats.loads_forwarded == 0
        assert stats.slots_coalesced == 0
        assert render_program(again) == render_program(program)


def record(path: str = GOLDEN_PATH) -> None:
    """Re-optimize every registry input and rewrite the fixture."""
    rows = {
        name: _golden_row(*result)
        for name, result in _optimized_inputs().items()
    }
    with open(path, "w") as handle:
        json.dump(rows, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    record()
