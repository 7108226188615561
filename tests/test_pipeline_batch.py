"""Differential gate for the batched multi-config timing engine.

``simulate_batch`` builds one shared column precompute and walks each
distinct config over it; sequential per-config ``simulate`` calls are
the reference.  The two must agree bit-for-bit on every statistic,
across every workload, every ablation axis the committed suites sweep,
fuzzed programs, odd batch sizes, duplicate configs and windows that
stop mid-trace.

Each parametrized check keeps a ``reference`` and a ``numpy`` leg,
named after a numpy switch that no longer exists: both legs run the
same code.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro import profiling
from repro.emulator import Machine
from repro.isa import assemble
from repro.trace.columnar import ColumnarTrace
from repro.uarch.config import table2_config
from repro.uarch.pipeline import simulate, simulate_batch
from repro.workloads import ALL_BENCHMARKS, workload

WINDOW = 2_000

_BASE = table2_config(16)

#: The config axes the committed suites ablate (SVF size, banking,
#: granularity, squash handling) plus every routing mode and the
#: predictor/context-switch paths the walk special-cases.
GRID = [
    _BASE,
    _BASE.with_svf(mode="svf", ports=16, capacity_bytes=64,
                   no_squash=True),
    _BASE.with_svf(mode="svf", ports=16, capacity_bytes=128,
                   no_squash=True),
    _BASE.with_svf(mode="svf", ports=16, capacity_bytes=256,
                   no_squash=True),
    _BASE.with_svf(mode="svf", ports=1),
    _BASE.with_svf(mode="svf", ports=1, banks=2),
    _BASE.with_svf(mode="svf", ports=1, banks=4),
    _BASE.with_svf(mode="svf", ports=2, granularity=16),
    _BASE.with_svf(mode="ideal"),
    _BASE.with_svf(mode="stack_cache"),
    _BASE.with_svf(mode="svf", ports=2, adaptive=True),
    dataclasses.replace(
        _BASE.with_svf(mode="svf", ports=2), branch_predictor="gshare"
    ),
]

#: Their test IDs stay until ROADMAP's "Fold the stale timing test
#: legs" item folds them.
LEGS = [
    pytest.param(False, id="reference"),
    pytest.param(True, id="numpy"),
]


def _assert_stats_equal(reference, batched, label):
    for field in dataclasses.fields(reference):
        ref_value = getattr(reference, field.name)
        bat_value = getattr(batched, field.name)
        assert bat_value == ref_value, (
            f"{label}: {field.name} diverged "
            f"(sequential {ref_value!r}, batched {bat_value!r})"
        )


def _seq_vs_batch(trace, configs, label):
    sequential = [simulate(trace, config) for config in configs]
    batched = simulate_batch(trace, configs)
    assert len(batched) == len(configs)
    for i, (ref, bat) in enumerate(zip(sequential, batched)):
        _assert_stats_equal(ref, bat, f"{label}[{i}]")


@pytest.fixture(scope="module")
def gzip_trace():
    return workload("gzip").trace(max_instructions=WINDOW)


@pytest.mark.parametrize("leg", LEGS)
@pytest.mark.parametrize("bench", ALL_BENCHMARKS)
def test_batch_matches_sequential_on_every_workload(bench, leg):
    trace = workload(bench).trace(max_instructions=WINDOW)
    _seq_vs_batch(trace, GRID, bench)


@pytest.mark.parametrize("leg", LEGS)
@pytest.mark.parametrize("size", [1, 2, 7, len(GRID)])
def test_batch_sizes(gzip_trace, size, leg):
    _seq_vs_batch(gzip_trace, GRID[:size], f"size{size}")


@pytest.mark.parametrize("leg", LEGS)
def test_small_chunks_interleave_mid_trace(gzip_trace, leg):
    # A mixed batch whose duplicates are not adjacent: every slot must
    # get the stats of its own config, through the copy-per-slot
    # fan-out, exactly as a sequential run would.
    configs = [GRID[0], GRID[4], GRID[0], GRID[9], GRID[4]]
    _seq_vs_batch(gzip_trace, configs, "mixed-duplicates")


@pytest.mark.parametrize("leg", LEGS)
@pytest.mark.parametrize("window", [1, 17, 63, 500])
def test_mid_trace_window_stops(window, leg):
    trace = workload("gzip").trace(max_instructions=window)
    _seq_vs_batch(trace, [GRID[0], GRID[4], GRID[8]], f"window{window}")


@pytest.mark.parametrize("leg", LEGS)
def test_empty_trace(leg):
    _seq_vs_batch(ColumnarTrace(), GRID[:3], "empty")


def test_duplicate_configs_return_independent_copies(gzip_trace):
    results = simulate_batch(gzip_trace, [GRID[0], GRID[0]])
    assert results[0] == results[1]
    assert results[0] is not results[1]
    results[0].cycles += 1
    results[0].extras["poked"] = 1
    assert results[1].cycles == results[0].cycles - 1
    assert "poked" not in results[1].extras


def test_batch_counters_note_saved_walks(gzip_trace):
    configs = [GRID[0], GRID[4], GRID[0]]  # 3 members, 2 distinct
    with profiling.profiled() as profiler:
        simulate_batch(gzip_trace, configs)
    assert profiler.counters["batch_configs"] == 3
    assert profiler.counters["batch_walks_saved"] == 1


# --- fuzzed programs: same step grammar as the columnar gate ---------

REGS = ["r1", "r2", "r3", "r4", "r5"]
ALU_OPS = ["addq", "subq", "mulq", "and", "or", "xor",
           "sll", "srl", "cmpeq", "cmplt"]

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

_step = st.one_of(_alu, _memory, _branch, _sp_adjust)


def _fuzz_source(steps):
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
            _, op, reg = item
            lines.append(f"    {op} {reg}, skip_{i}")
            lines.append("    addq r1, 1, r1")
            lines.append(f"skip_{i}:")
        else:
            _, imm = item
            lines.append(f"    lda sp, {imm}(sp)")
            lines.append(f"    lda sp, {-imm}(sp)")
    lines.append("    lda sp, 512(sp)")
    lines.append("    halt")
    return "\n".join(lines)


_FUZZ_CONFIGS = [GRID[0], GRID[4], GRID[8], GRID[9], GRID[11]]


class TestFuzzedDifferential:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(_step, min_size=1, max_size=30))
    def test_batch_matches_sequential(self, steps):
        program = assemble(_fuzz_source(steps))
        trace = ColumnarTrace()
        Machine(program).run(trace_sink=trace)
        _seq_vs_batch(trace, _FUZZ_CONFIGS, "fuzz")
