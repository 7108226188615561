"""Tests for the phase profiler and the versioned trace cache.

Covers the profiler's accumulate/merge/snapshot/render API, the
save/restore semantics of the active-profiler slot (cell-scoped
profilers must nest inside caller-scoped ones), the hot loops'
phase instrumentation, and the cache-invalidation contract: the
on-disk :class:`TraceCache` lives under a directory named by a digest
of the code, so entries written by any other version of the code are
never read again.
"""

import pytest

from repro import profiling
from repro.profiling import PhaseProfiler, profiled


@pytest.fixture(autouse=True)
def _no_leaked_profiler():
    assert profiling.active() is None
    yield
    assert profiling.active() is None


class TestPhaseProfiler:
    def test_note_accumulates(self):
        profiler = PhaseProfiler()
        profiler.note("emulate", 0.5, 1_000)
        profiler.note("emulate", 0.25, 500)
        profiler.note("render", 0.1)
        stat = profiler.phases["emulate"]
        assert stat.calls == 2
        assert stat.seconds == pytest.approx(0.75)
        assert stat.items == 1_500
        assert profiler.total_seconds == pytest.approx(0.85)

    def test_mips(self):
        profiler = PhaseProfiler()
        profiler.note("timing", 2.0, 4_000_000)
        assert profiler.phases["timing"].mips == pytest.approx(2.0)
        profiler.note("render", 0.1)
        assert profiler.phases["render"].mips == 0.0

    def test_snapshot_merge_round_trip(self):
        worker = PhaseProfiler()
        worker.note("compile", 0.1, 200)
        worker.note("timing", 1.0, 10_000)
        caller = PhaseProfiler()
        caller.note("timing", 0.5, 5_000)
        caller.merge(worker.snapshot())
        caller.merge(None)  # tolerated: cache hits ship no snapshot
        caller.merge({})
        assert caller.phases["timing"].calls == 2
        assert caller.phases["timing"].items == 15_000
        assert caller.phases["compile"].seconds == pytest.approx(0.1)

    def test_render_orders_phases_canonically(self):
        profiler = PhaseProfiler()
        profiler.note("render", 0.1)
        profiler.note("emulate", 0.2, 100)
        profiler.note("compile", 0.3, 50)
        text = profiler.render(title="T")
        assert text.startswith("T (phase total 0.600s)")
        positions = [text.index(p) for p in ("compile", "emulate", "render")]
        assert positions == sorted(positions)
        # Unknown phases sort after the canonical ones.
        profiler.note("zz-custom", 0.1)
        assert "zz-custom" in profiler.render().splitlines()[-1]

    def test_render_empty(self):
        text = PhaseProfiler().render()
        assert "phase total 0.000s" in text


class TestActiveProfilerSlot:
    def test_swap_save_restore(self):
        outer = PhaseProfiler()
        previous = profiling.swap(outer)
        assert previous is None
        assert profiling.active() is outer
        inner = PhaseProfiler()
        saved = profiling.swap(inner)
        assert saved is outer
        assert profiling.active() is inner
        profiling.swap(saved)
        assert profiling.active() is outer
        profiling.swap(None)

    def test_profiled_context_manager_nests(self):
        with profiled() as outer:
            profiling.note("render", 1.0)
            with profiled() as inner:
                profiling.note("render", 2.0)
            assert inner.phases["render"].seconds == pytest.approx(2.0)
            assert outer.phases["render"].seconds == pytest.approx(1.0)
        assert profiling.active() is None

    def test_module_note_without_profiler_is_noop(self):
        profiling.note("emulate", 1.0, 10)  # must not raise


class TestHotLoopInstrumentation:
    def test_phases_observed_end_to_end(self):
        from repro.core.traffic import simulate_traffic
        from repro.uarch.config import table2_config
        from repro.uarch.pipeline import simulate
        from repro.workloads import workload

        with profiled() as profiler:
            work = workload("gzip")
            trace = work.trace(max_instructions=2_000)
            simulate(trace, table2_config(4))
            simulate_traffic(trace)
        phases = profiler.phases
        assert set(phases) >= {"compile", "emulate", "timing", "traffic"}
        assert phases["emulate"].items == 2_000
        assert phases["timing"].items == 2_000
        assert phases["traffic"].items == 2_000
        assert all(stat.seconds >= 0.0 for stat in phases.values())

    def test_no_profiler_no_contamination(self):
        from repro.workloads import workload

        with profiled() as profiler:
            pass  # nothing runs inside
        workload("mcf").trace(max_instructions=500)
        assert profiler.phases == {}


class TestCacheSchemaInvalidation:
    KEY = ("164.gzip", "graphic", 0, 1_500)

    def test_cache_root_pins_code_digest(self, tmp_path):
        from repro.api import SCHEMA_VERSION
        from repro.harness.parallel import TraceCache, code_digest

        cache = TraceCache(str(tmp_path))
        assert cache.root == tmp_path / code_digest()
        assert SCHEMA_VERSION == 5

    def test_stale_v1_entries_never_read(self, tmp_path):
        from repro.harness.parallel import TraceCache

        # A leftover cache from schema v1 (pickled record lists).
        v1 = tmp_path / "v1"
        v1.mkdir()
        stale = v1 / "164.gzip.graphic.O0.w1500.trace.pkl"
        stale.write_bytes(b"\x80\x04N.")  # pickle of None
        cache = TraceCache(str(tmp_path))
        with profiled() as profiler:
            assert cache.load(self.KEY) is None
        assert profiler.counters == {"trace_cache_misses": 1}
        assert stale.exists()  # invalidation is by directory, not deletion

    def test_round_trip_through_cache(self, tmp_path):
        from repro.harness.parallel import TraceCache
        from repro.trace.columnar import ColumnarTrace
        from repro.workloads import workload

        trace = workload("gzip").trace(max_instructions=1_500)
        cache = TraceCache(str(tmp_path))
        cache.store(self.KEY, trace)
        assert cache.path_for(self.KEY).name.endswith(".trace.bin")
        loaded = cache.load(self.KEY)
        assert isinstance(loaded, ColumnarTrace)
        assert loaded == trace

    def test_corrupt_binary_entry_is_a_miss(self, tmp_path):
        from repro.harness.parallel import TraceCache

        cache = TraceCache(str(tmp_path))
        cache.path_for(self.KEY).write_bytes(b"SVFT\x03\x00garbage")
        assert cache.load(self.KEY) is None
        assert not cache.path_for(self.KEY).exists()  # dropped


class TestWriteTrace:
    def test_write_trace_matches_save_trace(self, tmp_path):
        import io

        from repro.trace import save_trace, write_trace
        from repro.workloads import workload

        trace = workload("mcf").trace(max_instructions=1_000)
        buffer = io.BytesIO()
        assert write_trace(buffer, trace) == 1_000
        path = tmp_path / "ref.svft"
        save_trace(trace, str(path))
        assert buffer.getvalue() == path.read_bytes()
