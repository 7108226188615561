"""Performance smoke for the columnar hot loops and the optimizer.

Not a benchmark — a regression tripwire that holds on any host.  No
check reads an absolute wall-clock time.  Each one is either a
deterministic count (instructions per phase, superblock coverage,
batch counters, traced allocation peaks) or, where the margin is
wide, a same-process ratio against a reference the repo keeps: the
column walks of the analyses and the traffic model beat their
row-at-a-time references (:func:`tests.trace_records.feed`) 17-42×
at this window, and the checks ask for ``MIN_COLUMN_SPEEDUP``.
Measurements live in ``perfbench/`` and ``docs/performance.md``.
"""

import tracemalloc
from time import perf_counter

from repro.core.traffic import TrafficSimulator, simulate_traffic
from repro.emulator import Machine
from repro.emulator.superblock import set_superblock_enabled
from repro.emulator.memory import STACK_BASE
from repro.lang.codegen import CodegenOptions
from repro.lang.opt import optimize_program
from repro.profiling import profiled
from repro.trace.analysis import (
    AccessDistribution,
    OffsetLocality,
    StackDepthProfile,
    consume_trace,
)
from repro.trace.columnar import ColumnarTrace
from repro.trace.first_touch import FirstTouchProfile
from repro.uarch.config import table2_config
from repro.uarch.pipeline import simulate, simulate_batch
from repro.workloads import workload

from tests.trace_records import feed, records

WINDOW = 40_000
#: Column walk over row reference, min of ``RATIO_RUNS`` each.
MIN_COLUMN_SPEEDUP = 3.0
RATIO_RUNS = 3
#: Share of the window superblock replay must retire on the
#: loop-heavy kernels: templates hold whole blocks, branch included,
#: so only one-instruction blocks and a window's last block step
#: (gzip ~98.7%, crafty ~99.8% measured).
MIN_REPLAYED = 0.95
#: (benchmark, opt level) whose 150,000-instruction window ends inside
#: a block too long to fit, so the step path finishes it.
MID_BLOCK_WINDOWS = (("crafty", 0), ("eon", 1))
#: ``optimize_program``'s traced allocation peak on perlbmk (~0.5 MB
#: measured; 62.8 MB while frame-byte facts were sets of offsets).
MAX_OPTIMIZER_PEAK_MB = 4.0
#: A full run's traced allocation peak beyond its columns' own bytes
#: (crafty: 327,952 instructions, 13.1 MB of columns, ~2.8 MB over).
MAX_EMULATION_OVERHEAD_MB = 5.0


def _best_seconds(run) -> float:
    times = []
    for _ in range(RATIO_RUNS):
        started = perf_counter()
        run()
        times.append(perf_counter() - started)
    return min(times)


def _analyses():
    return (
        AccessDistribution(),
        StackDepthProfile(stack_base=STACK_BASE),
        OffsetLocality(),
        FirstTouchProfile(),
    )


def _replayed_share(profiler) -> float:
    return profiler.counters["superblock_replayed_instructions"] / WINDOW


def test_cold_single_workload_end_to_end_budget():
    # Compile, emulate and two timing walks: every phase sees exactly
    # the instructions it should, and emulation stays on replay.
    with profiled() as profiler:
        work = workload("gzip")
        trace = work.trace(max_instructions=WINDOW)
        base = table2_config(16)
        baseline = simulate(trace, base)
        svf = simulate(trace, base.with_svf(mode="svf", ports=2))
    assert len(trace) == WINDOW
    assert svf.speedup_over(baseline) > 0
    phases = profiler.phases
    assert phases["compile"].calls == 1, profiler.render()
    assert phases["emulate"].items == WINDOW, profiler.render()
    assert phases["timing"].calls == 2, profiler.render()
    assert phases["timing"].items == 2 * WINDOW, profiler.render()
    assert _replayed_share(profiler) > MIN_REPLAYED, profiler.render()


def test_batched_analysis_budget():
    # The Fig 1-3 characterization pass: the column walk against the
    # analyses' row-at-a-time reference over the same trace.
    trace = workload("gzip").trace(max_instructions=WINDOW)

    def append_reference():
        sinks = _analyses()
        for record in records(trace):
            for sink in sinks:
                feed(sink, record)

    with profiled() as profiler:
        column_walk = _best_seconds(
            lambda: consume_trace(trace, _analyses())
        )
    reference = _best_seconds(append_reference)
    assert profiler.phases["analysis"].items == RATIO_RUNS * WINDOW
    assert reference / column_walk > MIN_COLUMN_SPEEDUP, (
        f"column walk {column_walk:.4f}s vs rows {reference:.4f}s"
    )


def test_batched_traffic_budget():
    # Same check for the Table 3 consumer's column walk.
    trace = workload("gzip").trace(max_instructions=WINDOW)

    def append_reference():
        simulator = TrafficSimulator()
        for record in records(trace):
            feed(simulator, record)
        return simulator.result()

    with profiled() as profiler:
        column_walk = _best_seconds(lambda: simulate_traffic(trace))
    reference = _best_seconds(append_reference)
    assert profiler.phases["traffic"].items == RATIO_RUNS * WINDOW
    assert reference / column_walk > MIN_COLUMN_SPEEDUP, (
        f"column walk {column_walk:.4f}s vs rows {reference:.4f}s"
    )


def test_superblock_replay_budget_and_hit_rate():
    # The loop-heavy LZ77 kernel replays most of its retirement from
    # superblock templates; the floor fires when a change stops
    # templates from forming or from being reused.
    with profiled() as profiler:
        workload("gzip").trace(max_instructions=WINDOW)
    counters = profiler.counters
    assert counters["superblock_builds"] > 0
    assert counters["superblock_replays"] > 0
    assert _replayed_share(profiler) > MIN_REPLAYED, profiler.render()


def _block_entries(program):
    """The program entry, every direct branch or call target, and
    every instruction after a control transfer."""
    entries = {program.label_index(program.entry)}
    for index, instr in enumerate(program.instructions):
        if instr.is_branch:
            entries.add(index + 1)
            if instr.target_index is not None:
                entries.add(instr.target_index)
    return entries


def test_templates_start_only_at_block_entries():
    # Templates are looked up only where a block is entered, so a
    # window that ends inside a long block steps through it without
    # compiling a suffix template at every index it passes.
    for name, opt in MID_BLOCK_WINDOWS:
        program = workload(name).program(CodegenOptions(opt_level=opt))
        machine = Machine(program)
        machine.run(max_instructions=150_000, trace_sink=ColumnarTrace())
        starts = {
            index
            for index, template in machine._superblocks.items()
            if template is not None
        }
        assert starts
        mid_block = sorted(starts - _block_entries(program))
        assert not mid_block, (name, opt, mid_block)


def test_step_decode_reference_budget():
    # The step-decode walk stays the reference implementation; it must
    # remain usable (differential gates run it on every workload).
    previous = set_superblock_enabled(False)
    try:
        with profiled() as profiler:
            trace = workload("gzip").trace(max_instructions=WINDOW)
    finally:
        set_superblock_enabled(previous)
    assert len(trace) == WINDOW
    assert "superblock_replays" not in profiler.counters
    assert profiler.phases["emulate"].items == WINDOW, profiler.render()


def test_batched_timing_budget():
    # Four configs share one config-invariant precompute and walk the
    # trace once each; all are distinct, so no walk is saved.
    trace = workload("gzip").trace(max_instructions=WINDOW)
    base = table2_config(16)
    configs = [base] + [
        base.with_svf(mode="svf", ports=ports) for ports in (1, 2, 16)
    ]
    with profiled() as profiler:
        stats = simulate_batch(trace, configs)
    assert len(stats) == len(configs)
    assert profiler.counters["batch_configs"] == len(configs)
    assert "batch_walks_saved" not in profiler.counters
    assert profiler.phases["timing"].items == len(configs) * WINDOW


def test_emulator_throughput_floor():
    # The packed emit path retires the whole window into columns, and
    # on crafty's search loops almost all of it through replay.
    with profiled() as profiler:
        trace = workload("crafty").trace(max_instructions=WINDOW)
    assert len(trace.pc) == WINDOW
    assert profiler.phases["emulate"].items == WINDOW
    assert _replayed_share(profiler) > MIN_REPLAYED, profiler.render()


def test_optimizer_memory_budget():
    # perlbmk's interpret() has a 16 KB local array.  The -O1 frame
    # analyses carry one bit per frame byte, so each fact over it is a
    # 2 KB int, not a set of 16k offsets copied at every block.
    program = workload("perlbmk").program()
    tracemalloc.start()
    try:
        optimize_program(program)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 1e6 < MAX_OPTIMIZER_PEAK_MB, f"peak {peak / 1e6:.1f} MB"


def test_full_run_memory_budget():
    # Emulating a whole run holds the columns plus bounded working
    # memory: nothing proportional to the run is kept beside them.
    program = workload("crafty").program()
    trace = ColumnarTrace()
    tracemalloc.start()
    try:
        machine = Machine(program)
        machine.run(trace_sink=trace)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert machine.halted
    column_bytes = sum(
        memoryview(getattr(trace, name)).nbytes
        for name in ColumnarTrace.__slots__
    )
    overhead = (peak - column_bytes) / 1e6
    assert overhead < MAX_EMULATION_OVERHEAD_MB, (
        f"peak {peak / 1e6:.1f} MB over {column_bytes / 1e6:.1f} MB "
        "of columns"
    )
