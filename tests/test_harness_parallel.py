"""Tests for the parallel experiment engine, trace cache, and the
harness hardening against bad benchmark subsets.

Covers the regression contract of the bugfix PR:

* unknown benchmark names fail fast with one UsageError naming them
  all (CLI: exit 2, one-line stderr);
* an empty subset renders an explicit placeholder table, never a bare
  StopIteration;
* every report section agrees on the validated subset;
* ``jobs=1`` and ``jobs=4`` reports are byte-identical;
* failed cells degrade to annotated gaps instead of crashing.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.errors import UsageError
from repro.harness.experiments import (
    Fig5Result,
    Fig6Result,
    Fig7Result,
    Fig9Result,
    Table3Result,
    Table4Result,
    _suite,
)
from repro.harness.parallel import (
    EngineOptions,
    TaskCell,
    TraceCache,
    run_cells,
)
from repro.harness.runall import _plan_cells, generate_report
from repro.profiling import profiled
from repro.workloads import (
    clear_trace_cache,
    registry,
    validate_benchmarks,
    workload,
)


def _report_cell(section: str, benchmark: str, window: int) -> TaskCell:
    """The cell a report plans for ``section`` × ``benchmark``."""
    return next(
        cell for cell in _plan_cells([benchmark], window, window, 1_000)
        if cell.section == section
    )


class TestSuiteValidation:
    def test_none_is_full_suite(self):
        assert len(_suite(None)) == 12

    def test_short_and_full_names_canonicalize(self):
        assert _suite(["gzip", "181.mcf"]) == ["164.gzip", "181.mcf"]

    def test_duplicates_deduplicate(self):
        assert _suite(["gzip", "164.gzip", "gzip"]) == ["164.gzip"]

    def test_unknown_name_raises_usage_error(self):
        with pytest.raises(UsageError, match="unknown benchmark: nope"):
            _suite(["nope"])

    def test_all_unknown_names_listed_at_once(self):
        with pytest.raises(UsageError, match="nope, doom"):
            validate_benchmarks(["nope", "gzip", "doom"])

    def test_extension_workload_resolves(self):
        assert validate_benchmarks(["x86mix"]) == ["ext.x86mix"]


class TestEmptySuiteRenders:
    """Filtering to an empty suite must render, not raise StopIteration."""

    @pytest.mark.parametrize("result", [
        Fig5Result(), Fig6Result(), Fig7Result(), Fig9Result(),
        Table3Result(), Table4Result(),
    ])
    def test_placeholder_table(self, result):
        text = result.render()
        assert "(no benchmarks selected)" in text

    def test_fig8_placeholder(self):
        assert "(no benchmarks selected)" in Fig7Result().render_fig8()

    def test_empty_render_survives_generator_context(self):
        # A bare StopIteration inside a generator would silently end
        # it (PEP 479 turns it into RuntimeError); rendering must not
        # depend on that.
        rendered = list(
            result.render()
            for result in (Fig5Result(), Fig9Result())
        )
        assert len(rendered) == 2


class TestTraceCache:
    KEY = ("164.gzip", "graphic", 0, 1500)

    def test_round_trip(self, tmp_path):
        cache = TraceCache(str(tmp_path))
        trace = workload("gzip").trace(max_instructions=1_500)
        with profiled() as profiler:
            assert cache.load(self.KEY) is None
            cache.store(self.KEY, trace)
            loaded = cache.load(self.KEY)
        assert len(loaded) == len(trace)
        assert loaded.pc[7] == trace.pc[7]
        assert profiler.counters == {
            "trace_cache_hits": 1, "trace_cache_misses": 1,
        }
        assert cache.path_for(self.KEY).exists()

    def test_corrupt_entry_is_dropped(self, tmp_path):
        cache = TraceCache(str(tmp_path))
        cache.store(self.KEY, workload("gzip").trace(max_instructions=500))
        cache.path_for(self.KEY).write_bytes(b"not a pickle")
        assert cache.load(self.KEY) is None
        assert not cache.path_for(self.KEY).exists()

    def test_versioned_layout(self, tmp_path):
        from repro.harness.parallel import code_digest

        cache = TraceCache(str(tmp_path))
        assert cache.root == tmp_path / code_digest()
        path = cache.path_for(self.KEY)
        assert path.name.endswith(".trace.bin")
        assert path.parent == cache.root

    def test_cell_payload_round_trip(self, tmp_path):
        from repro.harness.parallel import _MISS

        cache = TraceCache(str(tmp_path))
        cell = TaskCell("table4", "164.gzip", 1_000, (("period", 3200),))
        assert cache.load_cell(cell) is _MISS
        cache.store_cell(cell, (1.5, 2.5))
        assert cache.load_cell(cell) == (1.5, 2.5)
        path = cache.cell_path_for(cell)
        assert path.name.endswith(".cell.pkl")
        assert path.parent == cache.root

    def test_warm_engine_run_skips_recompute(self, tmp_path, monkeypatch):
        from repro.harness import parallel as parallel_module

        cell = _report_cell("timing", "164.gzip", 1_000)
        options = EngineOptions(jobs=1, cache_dir=str(tmp_path))
        first = run_cells([cell], options)[0]
        calls = []
        monkeypatch.setitem(
            parallel_module._CELL_RUNNERS, "timing",
            lambda c: calls.append(c) or {},
        )
        second = run_cells([cell], options)[0]
        assert not calls  # payload came from the cell cache, not the runner
        assert second.payload == first.payload

    def test_cached_trace_uses_disk_level(self, tmp_path):
        from repro.workloads import cached_trace, set_disk_trace_cache

        cache = TraceCache(str(tmp_path))
        set_disk_trace_cache(cache)
        try:
            clear_trace_cache()
            with profiled() as profiler:
                first = cached_trace(workload("mcf"), 1_000)
                clear_trace_cache()  # force the second lookup to disk
                second = cached_trace(workload("mcf"), 1_000)
        finally:
            set_disk_trace_cache(None)
            clear_trace_cache()
        assert profiler.counters["trace_cache_misses"] == 1
        assert profiler.counters["trace_cache_hits"] == 1
        assert len(list(cache.root.glob("*.trace.bin"))) == 1
        assert len(first) == len(second) == 1_000


class TestTraceMemoEviction:
    """The engine empties the per-process trace memo as each cell ends
    and the disk level serves the next cell — a persistent cache
    directory or, without one, a run-scoped one."""

    # Figures 1-3 and Table 4 replay the same gzip trace.
    CELLS = [
        _report_cell("characterize", "164.gzip", 1_200),
        _report_cell("table4", "164.gzip", 1_200),
    ]

    def test_disk_cache_serves_the_next_cell(self, tmp_path):
        clear_trace_cache()
        try:
            first, second = run_cells(
                self.CELLS, EngineOptions(jobs=1, cache_dir=str(tmp_path))
            )
            assert first.ok and second.ok
            assert registry._TRACE_CACHE == {}
        finally:
            clear_trace_cache()
        assert first.phases["counters"].get("trace_cache_misses") == 1
        assert second.phases["counters"].get("trace_cache_hits") == 1

    def test_without_disk_cache_a_run_scoped_cache_serves_the_next_cell(
        self, tmp_path, monkeypatch
    ):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        clear_trace_cache()
        try:
            first, second = run_cells(
                self.CELLS, EngineOptions(jobs=1, cache_dir=None)
            )
            assert first.ok and second.ok
            assert registry._TRACE_CACHE == {}
        finally:
            clear_trace_cache()
        assert second.phases["counters"].get("trace_cache_hits") == 1
        assert list(tmp_path.glob("repro-run-*")) == []

        # The directory goes when a cell fails, and when an exception
        # escapes the run.
        bad = TaskCell("no_such_section", "164.gzip", 1_000)
        assert not run_cells([bad], EngineOptions(jobs=1))[0].ok

        def interrupt(message):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_cells(self.CELLS, EngineOptions(jobs=1), progress=interrupt)
        assert list(tmp_path.glob("repro-run-*")) == []


class TestEngine:
    CELL = _report_cell("timing", "164.gzip", 1_500)

    def test_serial_and_pool_payloads_match(self, tmp_path):
        serial = run_cells(
            [self.CELL], EngineOptions(jobs=1, cache_dir=str(tmp_path))
        )
        pooled = run_cells(
            [self.CELL, _report_cell("characterize", "164.gzip", 1_500)],
            EngineOptions(jobs=2, cache_dir=str(tmp_path)),
        )
        assert serial[0].ok and pooled[0].ok and pooled[1].ok
        assert serial[0].payload == pooled[0].payload

    def test_outcomes_keep_submission_order(self):
        cells = [
            _report_cell("timing", "164.gzip", 1_000),
            _report_cell("timing", "181.mcf", 1_000),
        ]
        outcomes = run_cells(cells, EngineOptions(jobs=2))
        assert [o.cell.benchmark for o in outcomes] == [
            "164.gzip", "181.mcf",
        ]

    def test_failed_cell_degrades_with_retry(self):
        bad = TaskCell("no_such_section", "164.gzip", 1_000)
        outcome = run_cells([bad], EngineOptions(jobs=1))[0]
        assert not outcome.ok
        assert "no_such_section" in outcome.error
        assert outcome.attempts == 2  # original + one retry

    def test_failed_cell_degrades_in_pool(self):
        cells = [
            TaskCell("no_such_section", "164.gzip", 1_000),
            _report_cell("timing", "164.gzip", 1_000),
        ]
        outcomes = run_cells(cells, EngineOptions(jobs=2))
        assert not outcomes[0].ok and outcomes[0].attempts == 2
        assert outcomes[1].ok

    def test_infinite_deadline_runs_the_pool(self):
        # No deadline at all: the pool waits in bounded steps instead
        # of overflowing the platform's time_t.
        cells = [
            _report_cell("timing", "164.gzip", 1_000),
            _report_cell("timing", "181.mcf", 1_000),
        ]
        outcomes = run_cells(
            cells, EngineOptions(jobs=2, task_timeout=float("inf"))
        )
        assert [outcome.ok for outcome in outcomes] == [True, True]

    def test_progress_reports_each_cell(self):
        notes = []
        run_cells(
            [_report_cell("timing", "164.gzip", 1_000)],
            EngineOptions(jobs=1),
            progress=notes.append,
        )
        assert any("timing×164.gzip" in note and "ok" in note
                   for note in notes)


class TestReportDeterminism:
    WINDOWS = dict(timing_window=1_500, functional_window=1_500)

    def test_jobs_1_and_4_byte_identical(self, tmp_path):
        serial = generate_report(
            benchmarks=["gzip", "mcf"], jobs=1,
            cache_dir=str(tmp_path / "a"), **self.WINDOWS,
        )
        parallel = generate_report(
            benchmarks=["gzip", "mcf"], jobs=4,
            cache_dir=str(tmp_path / "b"), **self.WINDOWS,
        )
        assert serial == parallel

    def test_cache_off_is_also_identical(self):
        cached_off = generate_report(
            benchmarks=["gzip"], jobs=1, cache_dir=None, **self.WINDOWS,
        )
        pooled = generate_report(
            benchmarks=["gzip"], jobs=2, cache_dir=None, **self.WINDOWS,
        )
        assert cached_off == pooled

    def test_warm_cache_changes_nothing(self, tmp_path):
        cold = generate_report(
            benchmarks=["mcf"], jobs=1, cache_dir=str(tmp_path),
            **self.WINDOWS,
        )
        warm = generate_report(
            benchmarks=["mcf"], jobs=1, cache_dir=str(tmp_path),
            **self.WINDOWS,
        )
        assert cold == warm


class TestSubsetConsistency:
    """All report sections agree on the validated subset (Table 3 used
    to silently drop misspelled names while other sections crashed)."""

    def test_sections_share_the_subset(self, tmp_path):
        text = generate_report(
            timing_window=1_500, functional_window=1_500,
            benchmarks=["gzip", "mcf"], jobs=1,
            cache_dir=str(tmp_path),
        )
        per_bench = [
            segment for segment in text.split("## ")
            if segment.startswith((
                "Figure 1", "Figure 5", "Figure 6", "Figure 7",
                "Figure 8", "Figure 9", "Table 3", "Table 4",
            ))
        ]
        assert len(per_bench) == 8
        for segment in per_bench:
            assert "gzip" in segment, segment.splitlines()[0]
            assert "mcf" in segment, segment.splitlines()[0]
            assert "crafty" not in segment, segment.splitlines()[0]

    def test_table3_covers_every_input_of_the_subset(self, tmp_path):
        text = generate_report(
            timing_window=1_500, functional_window=1_500,
            benchmarks=["gzip"], jobs=1, cache_dir=str(tmp_path),
        )
        table3 = text.split("Table 3")[-1].split("##")[0]
        for row in ("gzip.graphic", "gzip.program", "gzip.log"):
            assert row in table3
        assert "mcf.inp" not in table3

    def test_unknown_name_rejected_before_any_work(self):
        with pytest.raises(UsageError, match="nope"):
            generate_report(
                timing_window=1_500, functional_window=1_500,
                benchmarks=["gzip", "nope"], jobs=1,
            )


class TestReportDegradation:
    TIMING_SECTIONS = ("Figure 5", "Figure 6", "Figure 7", "Figure 8",
                       "Figure 9")
    OTHER_SECTIONS = ("Figure 1", "Figure 2", "Figure 3", "Table 3",
                      "Table 4")

    def test_failed_cell_renders_annotated_gap(self, monkeypatch, tmp_path):
        from repro.harness import parallel as parallel_module
        from repro.profiling import PhaseProfiler

        def explode(cell):
            raise RuntimeError("injected fault")

        monkeypatch.setitem(
            parallel_module._CELL_RUNNERS, "timing", explode
        )
        report = dict(
            timing_window=1_200, functional_window=1_200,
            benchmarks=["gzip"], jobs=1, cache_dir=str(tmp_path),
        )
        text = generate_report(**report)
        sections = {
            segment.split("\n", 1)[0]: segment
            for segment in text.split("## ")[1:]
        }
        # The one timing cell served Figures 5-9, so each shows the gap.
        timing = [t for t in sections if t.startswith(self.TIMING_SECTIONS)]
        assert len(timing) == 5
        for title, body in sections.items():
            degraded = "degraded: cell timing×164.gzip" in body
            assert degraded == title.startswith(self.TIMING_SECTIONS), title
            if title.startswith(self.OTHER_SECTIONS):
                assert "degraded" not in body, title
        assert "injected fault" in text
        # The failed cell was never cached: a clean re-run recomputes
        # the timing cell and reuses the three the failure left intact.
        monkeypatch.undo()
        profiler = PhaseProfiler()
        healed = generate_report(**report, profiler=profiler)
        assert "degraded" not in healed
        assert profiler.counters["cell_cache_misses"] == 1
        assert profiler.counters["cell_cache_hits"] == 3


class TestPredictionParallel:
    def test_rows_merge_in_suite_order(self):
        from repro.harness.prediction import traffic_prediction_report

        report = traffic_prediction_report(
            benchmarks=["164.gzip", "181.mcf"],
            max_instructions=2_000,
            jobs=2,
        )
        assert [row.name for row in report.rows] == [
            "gzip.graphic", "mcf.inp",
        ]


class TestCli:
    def test_unknown_benchmark_exits_2_one_line(self, capsys, tmp_path):
        code = main(["report", "--output", str(tmp_path / "r.md"),
                     "--benchmarks", "nope"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("repro: unknown benchmark: nope")
        assert captured.err.count("\n") == 1

    def test_bad_jobs_exits_2(self, capsys, tmp_path):
        code = main(["report", "--output", str(tmp_path / "r.md"),
                     "--jobs", "0"])
        assert code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_report_with_jobs_and_cache(self, capsys, tmp_path):
        output = tmp_path / "r.md"
        code = main([
            "report", "--output", str(output),
            "--timing-window", "1500", "--functional-window", "1500",
            "--benchmarks", "gzip", "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        assert "Figure 5" in output.read_text()
        assert (tmp_path / "cache").exists()
        capsys.readouterr()

    def test_no_cache_skips_cache_dir(self, capsys, tmp_path):
        output = tmp_path / "r.md"
        code = main([
            "report", "--output", str(output),
            "--timing-window", "1200", "--functional-window", "1200",
            "--benchmarks", "mcf", "--jobs", "1", "--no-cache",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        assert not (tmp_path / "cache").exists()
        capsys.readouterr()

    def test_characterize_unknown_name_lists_choices(self, capsys):
        assert main(["characterize", "doom"]) == 2
        err = capsys.readouterr().err
        assert "unknown benchmark: doom" in err and "choose from" in err
