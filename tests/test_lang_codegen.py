"""End-to-end tests for the MiniC code generator.

Each test compiles a program, runs it on the emulator, and checks the
printed output — the strongest statement that the whole compile chain
(layout, temps, spilling, calling convention) is correct.
"""

import pytest

from repro.emulator import run_program
from repro.isa.registers import FP, SP
from repro.lang import CodegenOptions, compile_program, compile_to_assembly


def outputs(source, options=None, max_instructions=2_000_000):
    machine, _ = run_program(
        compile_program(source, options), max_instructions=max_instructions
    )
    assert machine.halted, "program did not halt"
    return machine.output


class TestExpressions:
    def test_arithmetic(self):
        assert outputs("int main() { print(2 + 3 * 4 - 6 / 2); return 0; }") \
            == [11]

    def test_division_truncates_toward_zero(self):
        assert outputs(
            "int main() { print(-7 / 2); print(-7 % 2); return 0; }"
        ) == [-3, -1]

    def test_comparisons(self):
        assert outputs(
            """
            int main() {
                print(3 < 4); print(4 <= 4); print(5 > 6);
                print(5 >= 6); print(7 == 7); print(7 != 7);
                return 0;
            }
            """
        ) == [1, 1, 0, 0, 1, 0]

    def test_bitwise_and_shifts(self):
        assert outputs(
            """
            int main() {
                print(12 & 10); print(12 | 10); print(12 ^ 10);
                print(3 << 4); print(-16 >> 2); print(~0);
                return 0;
            }
            """
        ) == [8, 14, 6, 48, -4, -1]

    def test_unary_minus_and_not(self):
        assert outputs(
            "int main() { print(-(3 + 4)); print(!0); print(!9); return 0; }"
        ) == [-7, 1, 0]

    def test_logical_short_circuit(self):
        # The right side divides by zero; short-circuit must skip it.
        assert outputs(
            """
            int main() {
                int zero_val = 0;
                print(0 && (1 / zero_val));
                print(1 || (1 / zero_val));
                print(2 && 3);
                print(0 || 0);
                return 0;
            }
            """
        ) == [0, 1, 1, 0]

    def test_deeply_nested_expression_spills(self):
        # Deep enough to exhaust the 14 temp registers.
        expression = "1" + " + (2 * (3 - (4 + (5 * (6 - (7 + (8 * (9 - (1 + " \
            "(2 * (3 - (4 + (5 * (6 - 7))))))))))))))"
        assert outputs(f"int main() {{ print({expression}); return 0; }}") \
            == [eval(expression.replace("/", "//"))]


class TestVariablesAndControl:
    def test_locals_and_reassignment(self):
        assert outputs(
            """
            int main() {
                int a = 5;
                int b = a * 2;
                a = b - 3;
                print(a + b);
                return 0;
            }
            """
        ) == [17]

    def test_globals_and_initializers(self):
        assert outputs(
            """
            int counter = 10;
            int table[4] = {2, 4, 6};
            int main() {
                counter += table[1];
                print(counter);
                print(table[3]);  // zero padded
                return 0;
            }
            """
        ) == [14, 0]

    def test_if_else_branches(self):
        assert outputs(
            """
            int classify(int n) {
                if (n < 0) { return -1; }
                else if (n == 0) { return 0; }
                return 1;
            }
            int main() {
                print(classify(-5)); print(classify(0)); print(classify(9));
                return 0;
            }
            """
        ) == [-1, 0, 1]

    def test_while_with_break_continue(self):
        assert outputs(
            """
            int main() {
                int total = 0;
                int i = 0;
                while (1) {
                    i += 1;
                    if (i > 10) { break; }
                    if (i % 2 == 0) { continue; }
                    total += i;
                }
                print(total);  // 1+3+5+7+9
                return 0;
            }
            """
        ) == [25]

    def test_for_loop_sum(self):
        assert outputs(
            """
            int main() {
                int total = 0;
                for (int i = 1; i <= 100; i += 1) { total += i; }
                print(total);
                return 0;
            }
            """
        ) == [5050]

    def test_nested_loops(self):
        assert outputs(
            """
            int main() {
                int cells = 0;
                for (int y = 0; y < 7; y += 1)
                    for (int x = 0; x < 5; x += 1)
                        cells += 1;
                print(cells);
                return 0;
            }
            """
        ) == [35]


class TestFunctions:
    def test_recursion_factorial(self):
        assert outputs(
            """
            int fact(int n) {
                if (n <= 1) { return 1; }
                return n * fact(n - 1);
            }
            int main() { print(fact(10)); return 0; }
            """
        ) == [3628800]

    def test_mutual_recursion(self):
        assert outputs(
            """
            int is_odd(int n) {
                if (n == 0) { return 0; }
                return is_even(n - 1);
            }
            int is_even(int n) {
                if (n == 0) { return 1; }
                return is_odd(n - 1);
            }
            int main() { print(is_even(10)); print(is_odd(7)); return 0; }
            """
        ) == [1, 1]

    def test_six_arguments(self):
        assert outputs(
            """
            int weigh(int a, int b, int c, int d, int e, int f) {
                return a + b * 2 + c * 3 + d * 4 + e * 5 + f * 6;
            }
            int main() { print(weigh(1, 2, 3, 4, 5, 6)); return 0; }
            """
        ) == [1 + 4 + 9 + 16 + 25 + 36]

    def test_call_in_expression_preserves_temps(self):
        assert outputs(
            """
            int g(int x) { return x * 10; }
            int main() {
                int r = g(1) + g(2) + g(3) * g(4);
                print(r);
                return 0;
            }
            """
        ) == [10 + 20 + 30 * 40]

    def test_missing_return_defaults(self):
        assert outputs(
            "int f() { } int main() { f(); print(7); return 0; }"
        ) == [7]


class TestArraysAndPointers:
    def test_local_array_read_write(self):
        assert outputs(
            """
            int main() {
                int a[5];
                for (int i = 0; i < 5; i += 1) { a[i] = i * i; }
                print(a[0] + a[1] + a[2] + a[3] + a[4]);
                return 0;
            }
            """
        ) == [30]

    def test_array_decay_to_pointer_argument(self):
        assert outputs(
            """
            int total(int *p, int n) {
                int acc = 0;
                for (int i = 0; i < n; i += 1) { acc += p[i]; }
                return acc;
            }
            int main() {
                int a[4];
                a[0] = 1; a[1] = 2; a[2] = 3; a[3] = 4;
                print(total(a, 4));
                print(total(&a[1], 2));
                return 0;
            }
            """
        ) == [10, 5]

    def test_out_parameter_through_pointer(self):
        assert outputs(
            """
            int fetch(int *out) { out[0] = 99; return 0; }
            int main() {
                int x = 0;
                fetch(&x);
                print(x);
                return 0;
            }
            """
        ) == [99]

    def test_pointer_deref_assignment(self):
        assert outputs(
            """
            int main() {
                int x = 1;
                int *p = &x;
                *p = 55;
                print(x);
                print(*p);
                return 0;
            }
            """
        ) == [55, 55]

    def test_alloc_returns_distinct_blocks(self):
        assert outputs(
            """
            int main() {
                int *a = alloc(3);
                int *b = alloc(2);
                a[0] = 1; a[2] = 3; b[0] = 10; b[1] = 20;
                print(a[0] + a[2] + b[0] + b[1]);
                print(b - a);  // byte distance: 3 quadwords
                return 0;
            }
            """
        ) == [34, 24]

    def test_global_array_via_helper(self):
        assert outputs(
            """
            int grid[9];
            int set_cell(int i, int v) { grid[i] = v; return v; }
            int main() {
                for (int i = 0; i < 9; i += 1) { set_cell(i, i * 2); }
                print(grid[8]);
                return 0;
            }
            """
        ) == [16]


class TestCodegenOptions:
    SOURCE = """
    int process(int *data, int n) {
        int local_buf[8];
        for (int i = 0; i < 8; i += 1) { local_buf[i] = data[i % n] + i; }
        int acc = 0;
        for (int i = 0; i < 8; i += 1) { acc += local_buf[i]; }
        return acc;
    }
    int main() {
        int seed[4];
        seed[0] = 3; seed[1] = 1; seed[2] = 4; seed[3] = 1;
        print(process(&seed[0], 4));
        return 0;
    }
    """

    def test_options_do_not_change_semantics(self):
        expected = outputs(self.SOURCE)
        for options in (
            CodegenOptions(fp_frames=False),
            CodegenOptions(promoted_locals=0),
            CodegenOptions(promoted_locals=6),
            CodegenOptions(fp_frames=False, promoted_locals=0),
        ):
            assert outputs(self.SOURCE, options) == expected

    def test_fp_frames_emit_fp_references(self):
        asm_with = compile_to_assembly(self.SOURCE, CodegenOptions())
        asm_without = compile_to_assembly(
            self.SOURCE, CodegenOptions(fp_frames=False)
        )
        assert "(fp)" in asm_with
        assert "(fp)" not in asm_without

    def test_promotion_reduces_stack_references(self):
        from repro.trace.analysis import AccessDistribution

        counts = {}
        for promoted in (0, 4):
            dist = AccessDistribution()
            program = compile_program(
                self.SOURCE, CodegenOptions(promoted_locals=promoted)
            )
            _, trace = run_program(program)
            dist.consume_columns(trace)
            counts[promoted] = dist.counts
        from repro.trace.regions import AccessMethod

        assert (
            counts[4][AccessMethod.STACK_SP]
            < counts[0][AccessMethod.STACK_SP]
        )

    def test_constant_index_folds_to_sp_relative(self):
        source = """
        int main() {
            int a[4];
            a[0] = 1; a[1] = 2;
            print(a[0] + a[1]);
            return 0;
        }
        """
        asm = compile_to_assembly(source)
        # Constant indices become direct frame stores, no address math.
        assert asm.count("sll") == 0
        assert outputs(source) == [3]
