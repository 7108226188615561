"""Property-based tests (hypothesis) for core invariants."""

from hypothesis import given, settings, strategies as st

from repro.core.stack_cache import StackCache
from repro.core.svf import StackValueFile
from repro.emulator import run_program
from repro.isa.assembler import assemble
from repro.lang import compile_program
from repro.uarch.cache import Cache
from repro.uarch.config import CacheConfig
from repro.uarch.resources import CycleWindow

MASK64 = (1 << 64) - 1


def to_signed(value):
    value &= MASK64
    return value - (1 << 64) if value & (1 << 63) else value


# ---------------------------------------------------------------------------
# MiniC expression compilation against a reference evaluator
# ---------------------------------------------------------------------------

_literals = st.integers(min_value=-50, max_value=50)


def _exprs(depth):
    if depth == 0:
        return _literals.map(lambda v: (str(v), v))
    sub = _exprs(depth - 1)

    def combine(args):
        op, (ls, lv), (rs, rv) = args
        if op == "+":
            value = lv + rv
        elif op == "-":
            value = lv - rv
        elif op == "*":
            value = lv * rv
        elif op == "&":
            value = lv & rv
        elif op == "|":
            value = lv | rv
        elif op == "^":
            value = lv ^ rv
        elif op == "<":
            value = int(lv < rv)
        else:
            value = int(lv == rv)
        return (f"({ls} {op} {rs})", to_signed(value))

    compound = st.tuples(
        st.sampled_from("+-*&|^<").map(str) | st.just("=="), sub, sub
    ).map(combine)
    return st.one_of(sub, compound)


class TestMiniCExpressions:
    @settings(max_examples=40, deadline=None)
    @given(_exprs(3))
    def test_compiled_expression_matches_reference(self, pair):
        source_expr, expected = pair
        program = compile_program(
            f"int main() {{ print({source_expr}); return 0; }}"
        )
        machine, _ = run_program(program, max_instructions=100_000)
        assert machine.halted
        assert machine.output == [expected]

    @settings(max_examples=20, deadline=None)
    @given(_exprs(2), _exprs(2))
    def test_expression_through_variables_and_calls(self, left, right):
        ls, lv = left
        rs, rv = right
        program = compile_program(
            f"""
            int pass_through(int x) {{ return x; }}
            int main() {{
                int a = {ls};
                int b = pass_through({rs});
                print(a + b);
                return 0;
            }}
            """
        )
        machine, _ = run_program(program, max_instructions=200_000)
        assert machine.output == [to_signed(lv + rv)]


# ---------------------------------------------------------------------------
# SVF invariants under arbitrary sp movement and access sequences
# ---------------------------------------------------------------------------

BASE = 0x7FF00000

_svf_ops = st.lists(
    st.one_of(
        st.tuples(st.just("sp"), st.integers(-40, 40)),
        st.tuples(st.just("load"), st.integers(0, 200)),
        st.tuples(st.just("store"), st.integers(0, 200)),
        st.tuples(st.just("switch"), st.just(0)),
    ),
    min_size=1,
    max_size=120,
)


class TestSVFProperties:
    @settings(max_examples=60, deadline=None)
    @given(_svf_ops, st.sampled_from([256, 512, 1024]))
    def test_invariants_hold(self, operations, capacity):
        svf = StackValueFile(capacity_bytes=capacity)
        sp = BASE
        svf.update_sp(sp)
        # Shadow model: words we know the SVF must consider valid.
        for kind, argument in operations:
            if kind == "sp":
                sp = BASE + 8 * argument  # stay in a sane band
                svf.update_sp(sp)
            elif kind in ("load", "store"):
                addr = sp + 8 * argument
                outcome = svf.access(addr, 8, kind == "store")
                assert outcome.in_range == svf.covers(addr)
                if outcome.in_range:
                    # After any access the word must be valid: an
                    # immediate re-load is always a hit.
                    again = svf.access(addr, 8, False)
                    assert again.hit
            else:
                svf.context_switch()
            # Global invariants.
            assert svf.valid_words <= svf.num_entries
            assert all(svf.covers(word) for word in svf._words)
            assert svf.qw_in >= 0 and svf.qw_out >= 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 100), st.sampled_from([256, 512]))
    def test_grow_shrink_cycle_never_writes_back(self, words, capacity):
        """Any frame fully allocated, dirtied and deallocated inside
        one grow/shrink cycle produces zero traffic (the paper's core
        semantic claim)."""
        svf = StackValueFile(capacity_bytes=capacity)
        svf.update_sp(BASE)
        svf.update_sp(BASE - 8 * words)
        for i in range(min(words, capacity // 8)):
            svf.access(BASE - 8 * words + 8 * i, 8, True)
        svf.update_sp(BASE)
        assert svf.qw_out == 0
        assert svf.qw_in == 0

    @settings(max_examples=40, deadline=None)
    @given(_svf_ops)
    def test_context_switch_flush_bounded_by_valid_words(self, operations):
        svf = StackValueFile(capacity_bytes=512)
        sp = BASE
        svf.update_sp(sp)
        for kind, argument in operations:
            if kind == "sp":
                sp = BASE + 8 * argument
                svf.update_sp(sp)
            elif kind in ("load", "store"):
                svf.access(sp + 8 * argument, 8, kind == "store")
            else:
                valid_before = svf.valid_words
                flushed = svf.context_switch()
                assert flushed <= 8 * valid_before


class TestStackCacheProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 500), st.booleans()),
                    min_size=1, max_size=200))
    def test_traffic_is_line_multiples(self, accesses):
        cache = StackCache(capacity_bytes=1024, line_size=32)
        for offset, is_store in accesses:
            cache.access(BASE + 8 * offset, 8, is_store)
        assert cache.qw_in % cache.line_words == 0
        assert cache.qw_out % cache.line_words == 0
        assert cache.qw_out <= cache.qw_in  # can't write back unfetched
        assert cache.hits + cache.misses == len(accesses)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=50))
    def test_single_line_working_set_only_compulsory_misses(self, offsets):
        cache = StackCache(capacity_bytes=1024, line_size=32)
        for offset in offsets:
            cache.access(BASE + 8 * offset, 8, False)
        assert cache.misses == 1  # all offsets share one line


# ---------------------------------------------------------------------------
# LRU cache and resource pools
# ---------------------------------------------------------------------------


class TestCacheProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=60))
    def test_fully_associative_small_set_compulsory_only(self, lines):
        config = CacheConfig(size=4 * 32, assoc=4, line_size=32, latency=1)
        cache = Cache(config, memory_latency=10)
        for line in lines:
            cache.access(line * 32)
        assert cache.misses == len(set(lines))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 100), min_size=1, max_size=200))
    def test_hits_plus_misses_equals_accesses(self, lines):
        config = CacheConfig(size=1024, assoc=2, line_size=32, latency=1)
        cache = Cache(config, memory_latency=10)
        for line in lines:
            cache.access(line * 32)
        assert cache.hits + cache.misses == len(lines)


class TestCyclePoolProperties:
    """The walk's probe over a :class:`CycleWindow` that it grows."""

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(0, 30), min_size=1, max_size=100),
        st.integers(1, 4),
    )
    def test_never_oversubscribed_and_monotone(self, requests, per_cycle):
        window = CycleWindow("p", per_cycle, 4)
        slots = window.slots
        grants = []
        for request in requests:
            cycle = request
            while True:
                if cycle >= len(slots):
                    # In place: the alias held here stays valid.
                    assert window.grow(cycle + 1) == len(slots)
                if slots[cycle] < per_cycle:
                    break
                cycle += 1
            slots[cycle] += 1
            grants.append(cycle)
        assert window.slots is slots
        for request, grant in zip(requests, grants):
            assert grant >= request
            assert all(slots[c] == per_cycle for c in range(request, grant))
        assert max(slots) <= per_cycle
        assert sum(slots) == len(requests)


# ---------------------------------------------------------------------------
# Assembler round trip
# ---------------------------------------------------------------------------

_regs = st.integers(0, 31)


class TestAssemblerRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["addq", "subq", "mulq", "and", "or", "xor",
                         "cmplt", "sll"]),
        _regs, _regs, _regs, st.integers(-255, 255), st.booleans(),
    )
    def test_alu_render_reassembles(self, op, ra, rb, rd, imm, use_imm):
        from repro.isa.instructions import Instruction

        if use_imm:
            original = Instruction(op, ra=ra, imm=imm, rd=rd)
        else:
            original = Instruction(op, ra=ra, rb=rb, rd=rd)
        program = assemble(f"main: {original.render()}\n halt")
        parsed = program.instructions[0]
        assert parsed.render() == original.render()

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["ldq", "stq", "ldl", "stl", "lda"]),
        _regs, _regs, st.integers(-4096, 4096),
    )
    def test_memory_render_reassembles(self, op, rd, rb, imm):
        from repro.isa.instructions import Instruction

        original = Instruction(op, rd=rd, rb=rb, imm=imm)
        program = assemble(f"main: {original.render()}\n halt")
        assert program.instructions[0].render() == original.render()
