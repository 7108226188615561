"""Warm reports: the cell cache is the report's one reuse level.

A report over a persistent ``cache_dir`` stores each finished cell's
payload under the cell's identity and renders every section from the
merged payloads on every run.  The contract under test:

* output byte-identical to a run without a persistent cache, warm and
  cold, at every job count;
* a fully warm run executes zero cells (proven with exploding
  runners);
* changing an input (the timing window) recomputes exactly the cells
  that read it;
* failed cells are never cached, so they re-run next time;
* the profiler counters explain what was reused.
"""

import repro.harness.parallel as parallel
from repro.api import ReportOptions, generate_report
from repro.profiling import PhaseProfiler

BENCH = ("181.mcf",)
WINDOWS = dict(timing_window=1_500, functional_window=1_500)


def _options(cache_dir, jobs=1, **overrides):
    knobs = dict(WINDOWS)
    knobs.update(overrides)
    return ReportOptions(
        benchmarks=BENCH, jobs=jobs, cache_dir=str(cache_dir), **knobs
    )


class TestByteIdentity:
    def test_cold_matches_non_incremental(self, tmp_path):
        plain = generate_report(
            ReportOptions(benchmarks=BENCH, jobs=1, use_cache=False,
                          **WINDOWS)
        )
        assert generate_report(_options(tmp_path / "cache")) == plain

    def test_warm_matches_at_every_jobs(self, tmp_path):
        cache = tmp_path / "cache"
        cold = generate_report(_options(cache))
        assert generate_report(_options(cache, jobs=1)) == cold
        assert generate_report(_options(cache, jobs=2)) == cold


class TestSectionReuse:
    def test_profiler_counts_reuse(self, tmp_path):
        cache = tmp_path / "cache"
        cold_profiler = PhaseProfiler()
        cold = generate_report(_options(cache), profiler=cold_profiler)
        # characterize, timing, table3 and table4: one cell each.
        assert cold_profiler.counters["cell_cache_misses"] == 4
        assert "cell_cache_hits" not in cold_profiler.counters
        warm_profiler = PhaseProfiler()
        warm = generate_report(_options(cache), profiler=warm_profiler)
        assert warm == cold
        assert warm_profiler.counters["cell_cache_hits"] == 4
        assert "cell_cache_misses" not in warm_profiler.counters

    def test_window_change_invalidates_selectively(self, tmp_path):
        cache = tmp_path / "cache"
        generate_report(_options(cache))
        profiler = PhaseProfiler()
        generate_report(
            _options(cache, timing_window=1_600), profiler=profiler
        )
        # Only the timing cell reads the timing window; characterize,
        # table3 and table4 read the functional window and hit.
        assert profiler.counters["cell_cache_misses"] == 1
        assert profiler.counters["cell_cache_hits"] == 3


class TestWarmRunsNoCells:
    def test_exploding_runners_never_fire_when_warm(
        self, tmp_path, monkeypatch
    ):
        cache = tmp_path / "cache"
        cold = generate_report(_options(cache))

        def explode(cell):
            raise AssertionError(f"cell {cell.label} ran")

        for section in list(parallel._CELL_RUNNERS):
            monkeypatch.setitem(
                parallel._CELL_RUNNERS, section, explode
            )
        assert generate_report(_options(cache)) == cold


class TestDegradedSections:
    def test_failed_section_not_cached(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"

        def fail(cell):
            raise RuntimeError("injected failure")

        monkeypatch.setitem(parallel._CELL_RUNNERS, "table4", fail)
        degraded = generate_report(_options(cache))
        assert "degraded: cell table4" in degraded
        monkeypatch.undo()
        # The healthy cells were cached; table4 was not, so the next
        # run re-executes it and produces a clean document.
        profiler = PhaseProfiler()
        healthy = generate_report(_options(cache), profiler=profiler)
        assert "degraded" not in healthy
        assert profiler.counters["cell_cache_hits"] == 3
        assert profiler.counters["cell_cache_misses"] == 1
