"""Ablation — compiler register promotion (codegen design choice).

DESIGN.md calls out register promotion as the knob that calibrates the
stack share of memory references against the paper's Figure 1 (real
SPEC binaries were compiled optimized).  This ablation quantifies it:
with promotion off (-O0-style), the stack share rises sharply and the
SVF's headroom grows with it.
"""

from repro.harness import render_table
from repro.lang import CodegenOptions
from repro.trace.analysis import AccessDistribution
from repro.workloads import workload

BENCHMARKS = ["186.crafty", "164.gzip", "300.twolf"]


def distribution(name, promoted, window):
    dist = AccessDistribution()
    dist.consume_columns(
        workload(name).trace(
            max_instructions=window,
            options=CodegenOptions(promoted_locals=promoted),
        )
    )
    return dist


def run_ablation(window):
    rows = []
    for name in BENCHMARKS:
        optimized = distribution(name, 4, window)
        unoptimized = distribution(name, 0, window)
        rows.append(
            (
                name,
                f"{optimized.stack_fraction:.2f}",
                f"{unoptimized.stack_fraction:.2f}",
                f"{optimized.memory_fraction:.2f}",
                f"{unoptimized.memory_fraction:.2f}",
            )
        )
    return rows


def test_promotion_ablation(benchmark, emit, functional_window):
    window = min(functional_window, 60_000)
    rows = benchmark.pedantic(
        lambda: run_ablation(window), rounds=1, iterations=1
    )
    emit(
        "ablation_promotion",
        render_table(
            ["Benchmark", "stack% (opt)", "stack% (-O0)",
             "mem/instr (opt)", "mem/instr (-O0)"],
            rows,
            title="Ablation: register promotion vs stack share",
        ),
    )
    for name, stack_opt, stack_o0, mem_opt, mem_o0 in rows:
        assert float(stack_o0) >= float(stack_opt) - 0.02, name
        assert float(mem_o0) >= float(mem_opt), name
