"""Tests for the partial-word builtins (load32/store32) and x86mix."""

import pytest

from repro.emulator import run_program
from repro.lang import compile_program
from repro.lang.interpreter import InterpreterError, interpret
from repro.lang.parser import parse
from repro.lang.semantics import SemanticError, analyze
from repro.workloads import workload

from tests.trace_records import records


def outputs(source):
    machine, _ = run_program(
        compile_program(source), max_instructions=3_000_000
    )
    assert machine.halted
    return machine.output


class TestBuiltins:
    def test_store_then_load_round_trip(self):
        assert outputs(
            """
            int main() {
                int buf[2];
                store32(&buf[0], 0, 123);
                store32(&buf[0], 4, 456);
                print(load32(&buf[0], 0));
                print(load32(&buf[0], 4));
                return 0;
            }
            """
        ) == [123, 456]

    def test_halves_are_independent(self):
        """Two 32-bit fields pack into one quad-word without clobber."""
        assert outputs(
            """
            int main() {
                int buf[1];
                buf[0] = 0;
                store32(&buf[0], 0, -1);
                print(load32(&buf[0], 4));  // upper half untouched
                store32(&buf[0], 4, 7);
                print(load32(&buf[0], 0));  // lower half preserved
                return 0;
            }
            """
        ) == [0, -1]

    def test_load32_sign_extends(self):
        assert outputs(
            """
            int main() {
                int buf[1];
                store32(&buf[0], 0, -5);
                print(load32(&buf[0], 0));
                return 0;
            }
            """
        ) == [-5]

    def test_quad_word_view_of_packed_fields(self):
        assert outputs(
            """
            int main() {
                int buf[1];
                store32(&buf[0], 0, 1);
                store32(&buf[0], 4, 2);
                print(buf[0]);  // little-endian: 2 << 32 | 1
                return 0;
            }
            """
        ) == [(2 << 32) | 1]

    def test_arity_checked(self):
        with pytest.raises(SemanticError, match="argument"):
            analyze(parse("int main() { load32(0); }"))
        with pytest.raises(SemanticError, match="argument"):
            analyze(parse("int main() { store32(0, 0); }"))

    def test_interpreter_agrees(self):
        source = """
        int main() {
            int buf[4];
            for (int i = 0; i < 8; i += 1) {
                store32(&buf[0], i * 4, i * 100 - 250);
            }
            int total = 0;
            for (int i = 0; i < 8; i += 1) {
                total += load32(&buf[0], i * 4);
            }
            print(total);
            print(buf[3]);
            return 0;
        }
        """
        assert outputs(source) == interpret(source).output

    def test_interpreter_checks_alignment(self):
        with pytest.raises(InterpreterError, match="unaligned"):
            interpret(
                "int main() { int b[1]; print(load32(&b[0], 2)); }"
            )


class TestX86MixWorkload:
    def test_runs_and_halts(self):
        machine = workload("x86mix").run(
            max_instructions=3_000_000, records=24, batches=2
        )
        assert machine.halted
        assert machine.output[1] == 24 * 2 * 2  # records weighed twice

    def test_partial_word_references_dominate_stores(self):
        trace = workload("x86mix").trace(max_instructions=40_000)
        stores = [r for r in records(trace) if r.is_store]
        partial = [r for r in stores if r.size == 4]
        assert len(partial) / len(stores) > 0.3

    def test_partial_word_stores_cost_svf_fills(self):
        """The future-work finding: sub-word stores erode — and here
        *invert* — the SVF's no-fill-on-allocate advantage.  A 32-bit
        store to an invalid 64-bit granule read-merges one word each,
        while the stack cache amortizes one line fill over four
        words.  This is exactly why the paper singles out x86's
        partial-word references as requiring further study."""
        from repro.core.traffic import simulate_traffic

        trace = workload("x86mix").trace(max_instructions=40_000)
        result = simulate_traffic(trace, capacity_bytes=8192)
        assert result.svf_qw_in > 0  # read-merge fills appear
        # On the SPEC-style full-word suite the SVF wins by orders of
        # magnitude; on this partial-word mix it loses its edge.
        assert result.svf_qw_in >= result.stack_cache_qw_in
