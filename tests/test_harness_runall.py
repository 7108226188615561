"""Tests for the all-in-one report generator."""

from repro.harness.experiments import (
    fig5_ideal_morphing,
    fig6_progressive,
    fig7_svf_vs_stack_cache,
    fig9_svf_speedup,
    timing_rows,
)
from repro.harness.runall import _plan_cells, generate_report
from repro.profiling import PhaseProfiler


class TestGenerateReport:
    def test_small_subset_report(self):
        notes = []
        text = generate_report(
            timing_window=3_000,
            functional_window=3_000,
            benchmarks=["164.gzip"],
            progress=notes.append,
        )
        # Every section is present.
        for marker in (
            "Table 1", "Table 2", "Figure 1", "Figure 2", "Figure 3",
            "First-touch", "Figure 5", "Figure 6", "Figure 7",
            "Figure 8", "Table 3", "Table 4", "Figure 9",
        ):
            assert marker in text, marker
        # Only the requested benchmark appears in per-bench tables.
        assert "164.gzip" in text
        figure5 = text.split("Figure 5")[1].split("##")[0]
        assert "186.crafty" not in figure5
        # Table 3 was filtered to the requested benchmark's inputs.
        table3 = text.split("Table 3")[-1].split("##")[0]
        assert "crafty.ref" not in table3
        assert "gzip.graphic" in table3
        # Progress callbacks fired for every stage.
        assert len(notes) >= 7

    def test_report_is_markdown(self):
        text = generate_report(
            timing_window=2_000,
            functional_window=2_000,
            benchmarks=["164.gzip"],
        )
        assert text.startswith("# ")
        assert text.count("```") % 2 == 0


class TestTimingCell:
    """Figures 5, 6, 7 and 9 share one timing cell per benchmark, which
    walks each distinct machine once."""

    def test_one_timing_cell_per_benchmark(self):
        cells = _plan_cells(["164.gzip"], 1_500, 1_500, 1_000)
        assert [cell.section for cell in cells] == [
            "characterize", "timing", "table3", "table4",
        ]
        assert cells[1].param("figures") == "fig5+fig6+fig7+fig9"

    def test_each_distinct_machine_is_walked_once(self):
        profiler = PhaseProfiler()
        generate_report(
            benchmarks=["gzip"], jobs=1, timing_window=1_500,
            functional_window=1_500, profiler=profiler,
        )
        timing = profiler.phases["timing"]
        # 27 machines over the four figures, 19 of them distinct.
        assert (timing.calls, timing.items) == (1, 19 * 1_500)
        assert profiler.counters["batch_configs"] == 27

    def test_rows_match_each_figure_driver(self):
        rows = timing_rows(
            "181.mcf", 1_500, ["fig5", "fig6", "fig7", "fig9"]
        )
        mcf = ["181.mcf"]
        fig7 = fig7_svf_vs_stack_cache(mcf, 1_500)
        assert rows == {
            "fig5": fig5_ideal_morphing(mcf, 1_500).speedups["181.mcf"],
            "fig6": fig6_progressive(mcf, 1_500).speedups["181.mcf"],
            "fig7": {
                "speedups": fig7.speedups["181.mcf"],
                "svf_stats": fig7.svf_stats["181.mcf"],
            },
            "fig9": fig9_svf_speedup(mcf, 1_500).speedups["181.mcf"],
        }
        assert list(timing_rows("181.mcf", 1_500, ["fig9"])) == ["fig9"]
