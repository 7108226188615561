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
* the profiler counters explain what was reused;
* the cache directory is named by a digest of the code, so the first
  run after a source edit reuses nothing (proven on an edited copy of
  the package).
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

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


class TestCodeEdits:
    PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"

    def test_edited_workload_is_recomputed(self, tmp_path):
        src = tmp_path / "src"
        shutil.copytree(self.PACKAGE, src / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=str(src))

        def report(output, *args):
            completed = subprocess.run(
                [sys.executable, "-m", "repro", "report",
                 "--benchmarks", "mcf", "--timing-window", "5000",
                 "--functional-window", "5000", "--jobs", "1",
                 "--profile", "--output", str(tmp_path / output), *args],
                capture_output=True, text=True, timeout=300, env=env,
                cwd=str(tmp_path),
            )
            assert completed.returncode == 0, completed.stderr
            return completed.stdout, (tmp_path / output).read_text()

        cache = ("--cache-dir", str(tmp_path / "cache"))
        _, cold = report("cold.md", *cache)
        mcf = src / "repro" / "workloads" / "mcf.py"
        source = mcf.read_text()
        assert "    arcs: int = 256,\n" in source
        mcf.write_text(source.replace("    arcs: int = 256,\n",
                                      "    arcs: int = 32,\n"))
        profile, warm = report("warm.md", *cache)
        _, fresh = report("fresh.md", "--no-cache")
        assert fresh != cold  # the edit moves the numbers
        assert warm == fresh
        assert "cell_cache_misses" in profile
        assert "cell_cache_hits" not in profile
