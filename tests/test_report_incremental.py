"""Incremental report mode: content-keyed section reuse.

``repro report --incremental`` records a content key per compute
section (workload sources × compile options × machine specs × analysis
version × window) in the shared :class:`TraceCache` and re-renders
only sections whose keys changed, splicing cached payloads in for the
rest.  The contract under test:

* output byte-identical to a non-incremental run, warm and cold, at
  every job count;
* a fully warm run executes zero cells (proven with exploding
  runners);
* changing an input (the timing window) invalidates exactly the
  sections that consume it;
* degraded sections are never cached, so they re-run next time;
* the profiler counters explain what was reused.
"""

import pytest

import repro.harness.parallel as parallel
from repro.api import ReportOptions, generate_report
from repro.harness.runall import (
    _SECTION_PLAN,
    _SECTION_VERSIONS,
    section_content_key,
)
from repro.profiling import PhaseProfiler

BENCH = ("181.mcf",)
WINDOWS = dict(timing_window=1_500, functional_window=1_500)


def _options(cache_dir, incremental=True, jobs=1, **overrides):
    knobs = dict(WINDOWS)
    knobs.update(overrides)
    return ReportOptions(
        benchmarks=BENCH,
        jobs=jobs,
        cache_dir=str(cache_dir),
        incremental=incremental,
        **knobs,
    )


class TestByteIdentity:
    def test_cold_matches_non_incremental(self, tmp_path):
        plain = generate_report(
            _options(tmp_path / "a", incremental=False)
        )
        incremental = generate_report(_options(tmp_path / "b"))
        assert incremental == plain

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
        assert cold_profiler.counters["sections_rendered"] == len(
            _SECTION_PLAN
        )
        assert "sections_reused" not in cold_profiler.counters
        warm_profiler = PhaseProfiler()
        warm = generate_report(_options(cache), profiler=warm_profiler)
        assert warm == cold
        assert warm_profiler.counters["sections_reused"] == len(
            _SECTION_PLAN
        )
        assert warm_profiler.counters["section_cache_hits"] == len(
            _SECTION_PLAN
        )
        assert "sections_rendered" not in warm_profiler.counters

    def test_window_change_invalidates_selectively(self, tmp_path):
        cache = tmp_path / "cache"
        generate_report(_options(cache))
        profiler = PhaseProfiler()
        generate_report(
            _options(cache, timing_window=1_600), profiler=profiler
        )
        # fig5/fig6/fig7/fig9 consume the timing window; characterize,
        # table3 and table4 consume the functional window and reuse.
        assert profiler.counters["sections_rendered"] == 4
        assert profiler.counters["sections_reused"] == 3


class TestPartialTimingCell:
    def test_changed_figure_plans_a_timing_cell_naming_only_it(
        self, tmp_path, monkeypatch
    ):
        import repro.harness.runall as runall

        bench = ("164.gzip", "181.mcf")
        options = ReportOptions(
            benchmarks=bench, jobs=1, cache_dir=str(tmp_path / "cache"),
            incremental=True, **WINDOWS,
        )
        generate_report(options)  # fills every section's cache entry
        monkeypatch.setitem(
            _SECTION_VERSIONS, "fig6", _SECTION_VERSIONS["fig6"] + 1
        )
        planned = []

        def spy(cells, *args, **kwargs):
            planned.extend(cells)
            return parallel.run_cells(cells, *args, **kwargs)

        monkeypatch.setattr(runall, "run_cells", spy)
        profiler = PhaseProfiler()
        text = generate_report(options, profiler=profiler)
        assert [(c.section, c.benchmark, c.params) for c in planned] == [
            ("timing", name, (("figures", "fig6"),)) for name in bench
        ]
        assert profiler.counters["sections_reused"] == 6
        assert profiler.counters["sections_rendered"] == 1
        assert text == generate_report(ReportOptions(
            benchmarks=bench, jobs=1, use_cache=False, **WINDOWS,
        ))


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
        # The healthy sections were cached; table4 was not, so the
        # next run re-executes it and produces a clean document.
        profiler = PhaseProfiler()
        healthy = generate_report(_options(cache), profiler=profiler)
        assert "degraded" not in healthy
        assert profiler.counters["sections_reused"] == 6
        assert profiler.counters["sections_rendered"] == 1


class TestContentKeys:
    def test_stable_across_calls(self):
        for section, _kind in _SECTION_PLAN:
            first = section_content_key(section, list(BENCH), 2_000, 80)
            again = section_content_key(section, list(BENCH), 2_000, 80)
            assert first == again

    def test_distinct_per_section_and_inputs(self):
        keys = {
            section_content_key(section, list(BENCH), 2_000, 80)
            for section, _kind in _SECTION_PLAN
        }
        assert len(keys) == len(_SECTION_PLAN)
        assert section_content_key(
            "fig5", list(BENCH), 2_000, 80
        ) != section_content_key("fig5", list(BENCH), 2_001, 80)
        assert section_content_key(
            "table4", list(BENCH), 2_000, 80
        ) != section_content_key("table4", list(BENCH), 2_000, 81)
        assert section_content_key(
            "fig5", ["164.gzip"], 2_000, 80
        ) != section_content_key("fig5", ["181.mcf"], 2_000, 80)

    def test_version_bump_invalidates(self, monkeypatch):
        before = section_content_key("table3", list(BENCH), 2_000, 80)
        monkeypatch.setitem(
            _SECTION_VERSIONS,
            "table3",
            _SECTION_VERSIONS["table3"] + 1,
        )
        assert (
            section_content_key("table3", list(BENCH), 2_000, 80)
            != before
        )

    def test_corrupt_section_entry_degrades_to_miss(self, tmp_path):
        cache = tmp_path / "cache"
        cold = generate_report(_options(cache))
        store = parallel.TraceCache(str(cache))
        for path in store.sections_root.glob("*.section.pkl"):
            path.write_bytes(b"not a pickle")
        profiler = PhaseProfiler()
        assert generate_report(_options(cache), profiler=profiler) == cold
        assert profiler.counters["sections_rendered"] == len(
            _SECTION_PLAN
        )
