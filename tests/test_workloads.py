"""Tests for the SPECint2000-inspired workload suite."""

import pytest

from repro.trace.columnar import FLAG_LOAD, FLAG_SP_UPDATE, FLAG_STORE
from repro.workloads import (
    BENCHMARK_ORDER,
    TABLE1_INPUTS,
    all_inputs,
    all_workloads,
    benchmark_names,
    cached_trace,
    clear_trace_cache,
    input_names,
    workload,
)


class TestRegistry:
    def test_twelve_benchmarks(self):
        assert len(BENCHMARK_ORDER) == 12
        assert len(all_workloads()) == 12

    def test_table1_covers_all(self):
        assert set(TABLE1_INPUTS) == set(BENCHMARK_ORDER)

    def test_short_names_resolve(self):
        assert workload("crafty").name == "186.crafty"
        assert workload("176.gcc").name == "176.gcc"

    def test_unknown_names_rejected(self):
        with pytest.raises(KeyError):
            workload("nonexistent")
        with pytest.raises(KeyError):
            workload("crafty", "nonexistent-input")

    def test_paper_input_sets_exist(self):
        assert set(input_names("bzip2")) == {"graphic", "program"}
        assert set(input_names("eon")) == {"cook", "kajiya"}
        assert set(input_names("gcc")) == {"cp-decl", "integrate"}
        assert set(input_names("gzip")) == {"graphic", "log", "program"}

    def test_all_inputs_is_table3_rows(self):
        rows = [w.full_name for w in all_inputs()]
        assert "bzip2.graphic" in rows
        assert "eon.kajiya" in rows
        assert len(rows) == 17

    def test_full_name_format(self):
        assert workload("bzip2", "graphic").full_name == "bzip2.graphic"


class TestExecution:
    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_compiles_and_runs(self, name):
        trace = workload(name).trace(max_instructions=5_000)
        assert len(trace) == 5_000
        assert any(flags & (FLAG_LOAD | FLAG_STORE) for flags in trace.flags)
        assert any(flags & FLAG_SP_UPDATE for flags in trace.flags)

    def test_deterministic_across_runs(self):
        work = workload("twolf")
        first = work.trace(max_instructions=3_000)
        second = work.trace(max_instructions=3_000)
        assert first == second

    def test_inputs_differ(self):
        graphic = workload("bzip2", "graphic").trace(max_instructions=5_000)
        program = workload("bzip2", "program").trace(max_instructions=5_000)
        assert graphic.pc != program.pc

    def test_parameter_overrides(self):
        machine = workload("crafty").run(positions=1, depth=3)
        assert machine.halted
        assert len(machine.output) == 2

    @pytest.mark.parametrize(
        "name,kwargs",
        [
            ("bzip2", dict(blocks=1, block=64)),
            ("crafty", dict(positions=1, depth=4)),
            ("eon", dict(width=3, height=3, spheres=2, bounces=1)),
            ("gap", dict(degree=12, rounds=2)),
            ("gcc", dict(units=1, depth=4)),
            ("gzip", dict(window=128, passes=1)),
            ("mcf", dict(nodes=16, arcs=48, sources=2)),
            ("parser", dict(sentences=3, depth=6)),
            ("twolf", dict(cells=8, nets=12, steps=4)),
            ("vortex", dict(transactions=40)),
            ("perlbmk", dict(scripts=2, loop_count=8, vm_stack=64)),
            ("vpr", dict(width=6, height=6, nets=3)),
        ],
    )
    def test_small_configurations_halt(self, name, kwargs):
        machine = workload(name).run(max_instructions=3_000_000, **kwargs)
        assert machine.halted, f"{name} did not halt"
        assert machine.output, f"{name} produced no output"


class TestTraceCache:
    def test_cache_returns_same_object(self):
        clear_trace_cache()
        work = workload("gzip")
        first = cached_trace(work, 2_000)
        second = cached_trace(work, 2_000)
        assert first is second
        clear_trace_cache()
        third = cached_trace(work, 2_000)
        assert third is not first

    def test_cache_keys_by_length(self):
        clear_trace_cache()
        work = workload("gzip")
        assert len(cached_trace(work, 1_000)) == 1_000
        assert len(cached_trace(work, 2_000)) == 2_000
        clear_trace_cache()
