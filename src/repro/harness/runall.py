"""Run the full experiment battery and render one report.

``generate_report`` regenerates every table and figure of the paper
(plus the characterization extensions) at the requested windows and
returns a single markdown document — the programmatic equivalent of
``pytest benchmarks/ --benchmark-only``, usable from the CLI
(``python -m repro report``) or a notebook.

The sweep is decomposed into (benchmark × experiment × window) cells
and executed by :mod:`repro.harness.parallel` — ``jobs`` workers over
a process pool, backed by the shared on-disk trace cache at
``cache_dir`` (or, without one, a cache that lasts only the run).
The cache also keeps each finished cell's payload under the cell's
identity, so a warm re-run executes no cells; every section is still
rendered from the merged payloads on each run.  The cache directory
is named by a digest of the code, so the first run after a source
edit recomputes every cell.  Results merge in
suite order, so the document is byte-identical for any ``jobs``
value; a cell that fails after its retry renders as an annotated gap
inside its section instead of crashing the report.
"""

from __future__ import annotations

import io
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.harness.experiments import (
    CharacterizationResult,
    Fig5Result,
    Fig6Result,
    Fig7Result,
    Fig9Result,
    Table3Result,
    Table4Result,
    _suite,
    table1_workloads,
    table2_models,
)
from repro.harness.parallel import (
    CellOutcome,
    EngineOptions,
    TaskCell,
    run_cells,
)
from repro.profiling import PhaseProfiler

#: (cell section, which window it uses) in plan order.
_SECTION_PLAN: Tuple[Tuple[str, str], ...] = (
    ("characterize", "functional"),
    ("timing", "timing"),
    ("table3", "functional"),
    ("table4", "functional"),
)

#: The timing figures, in report order; one ``timing`` cell per
#: benchmark computes them all.
_SECTION_CONFIGS: Tuple[str, ...] = ("fig5", "fig6", "fig7", "fig9")

#: (document title, compute section, renderer method of its merged
#: result) in document order.  One compute section can feed several
#: document sections (Fig 1-3 and first-touch all come from
#: "characterize"; Fig 7 and Fig 8 both come from "fig7").
_RENDER_PLAN: Tuple[Tuple[str, str, str], ...] = (
    ("Figure 1 — access distribution", "characterize", "render_fig1"),
    ("Figure 2 — stack depth", "characterize", "render_fig2"),
    ("Figure 3 — offset locality", "characterize", "render_fig3"),
    (
        "First-touch analysis (valid-bit rationale)",
        "characterize",
        "render_first_touch",
    ),
    ("Figure 5 — ideal morphing", "fig5", "render"),
    ("Figure 6 — progressive analysis", "fig6", "render"),
    ("Figure 7 — SVF vs stack cache", "fig7", "render"),
    ("Figure 8 — reference breakdown", "fig7", "render_fig8"),
    ("Table 3 — memory traffic", "table3", "render"),
    ("Table 4 — context-switch writeback", "table4", "render"),
    ("Figure 9 — SVF speedups by ports", "fig9", "render"),
)


def _plan_cells(
    suite: Sequence[str],
    timing_window: int,
    functional_window: int,
    period: int,
) -> List[TaskCell]:
    """Section-major cell order: workers hit distinct benchmarks first,
    so cold-cache runs compute each trace once instead of racing on it.
    One ``timing`` cell per benchmark times the machines of all four
    timing figures in one batch, walking a machine several figures
    share once."""
    windows = {"timing": timing_window, "functional": functional_window}
    cells = []
    for section, window_kind in _SECTION_PLAN:
        params = (("period", period),) if section == "table4" else ()
        for benchmark in suite:
            cells.append(
                TaskCell(section, benchmark, windows[window_kind], params)
            )
    return cells


def _merge(
    suite: Sequence[str],
    outcomes: Sequence[CellOutcome],
    period: int,
) -> Dict[str, object]:
    """Fold per-cell payloads into result objects, in suite order.

    A benchmark's timing figures arrive together, as the ``timing``
    cell's payload of one whole row per figure.  A benchmark
    with a missing/failed cell drops out of every figure that cell
    serves, with the specific cell named in the degraded annotation.
    """
    by_cell = {
        (outcome.cell.section, outcome.cell.benchmark): outcome
        for outcome in outcomes
    }

    def payload(section: str, benchmark: str):
        outcome = by_cell.get((section, benchmark))
        return outcome.payload if outcome is not None and outcome.ok else None

    characterization = CharacterizationResult()
    fig5 = Fig5Result()
    fig6 = Fig6Result()
    fig7 = Fig7Result()
    fig9 = Fig9Result()
    table3 = Table3Result()
    table4 = Table4Result(period=period)
    for benchmark in suite:
        char = payload("characterize", benchmark)
        if char is not None:
            characterization.distributions[benchmark] = char["distribution"]
            characterization.depth_profiles[benchmark] = char["depth"]
            characterization.localities[benchmark] = char["locality"]
            characterization.first_touch[benchmark] = char["first_touch"]
        rows = payload("timing", benchmark)
        if rows is not None:
            fig5.speedups[benchmark] = rows["fig5"]
            fig6.speedups[benchmark] = rows["fig6"]
            fig7.speedups[benchmark] = rows["fig7"]["speedups"]
            fig7.svf_stats[benchmark] = rows["fig7"]["svf_stats"]
            fig9.speedups[benchmark] = rows["fig9"]
        traffic = payload("table3", benchmark)
        if traffic is not None:
            table3.traffic.update(traffic)
        switch = payload("table4", benchmark)
        if switch is not None:
            table4.rows[benchmark] = switch
    return {
        "characterize": characterization,
        "fig5": fig5,
        "fig6": fig6,
        "fig7": fig7,
        "fig9": fig9,
        "table3": table3,
        "table4": table4,
    }


def generate_report(
    timing_window: int = 40_000,
    functional_window: int = 80_000,
    benchmarks: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    task_timeout: float = 600.0,
    profiler: Optional[PhaseProfiler] = None,
    fault_plan=None,
) -> str:
    """Run everything; returns the report as markdown text.

    ``progress``, if given, is called with a status string before each
    stage and after each finished cell (e.g. ``print``).  ``jobs``
    picks the worker count (None → ``os.cpu_count()``, 1 → inline);
    ``cache_dir`` names the persistent on-disk cache (None → a cache
    that lasts only this run).  The output is byte-identical across
    ``jobs`` values.

    ``profiler``, if given, accumulates the per-phase breakdown of the
    whole sweep: every cell's worker-side phase snapshot is merged in,
    plus the report's own ``render`` phase, and the cache counters
    (cell/trace hits and misses).  The breakdown never enters the
    document, so profiled and unprofiled reports stay byte-identical.

    ``fault_plan`` (a :class:`repro.harness.chaos.FaultPlan`) is
    forwarded to the engine — the chaos harness uses it to prove the
    degradation contract above under injected worker faults.
    """

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    suite = _suite(benchmarks)
    period = max(functional_window // 25, 1_000)
    started = time.time()
    render_seconds = 0.0
    render_started = time.perf_counter()

    out = io.StringIO()
    out.write("# SVF reproduction — full experiment report\n\n")
    out.write(
        f"Windows: {timing_window:,} instructions (timing), "
        f"{functional_window:,} (functional).\n\n"
    )

    failures_by_section: Dict[str, List[CellOutcome]] = {}

    def section(title: str, body: str, section_key: str = "") -> None:
        annotations = ""
        for outcome in failures_by_section.get(section_key, ()):
            annotations += (
                f"\n(degraded: cell {outcome.cell.label} failed after "
                f"{outcome.attempts} attempt"
                f"{'s' if outcome.attempts != 1 else ''} — {outcome.error})"
            )
        out.write(f"## {title}\n\n```\n{body}{annotations}\n```\n\n")

    note("Tables 1-2 (inventories)")
    section("Table 1 — benchmarks", table1_workloads())
    section("Table 2 — machine models", table2_models())
    render_seconds += time.perf_counter() - render_started

    cells = _plan_cells(suite, timing_window, functional_window, period)
    options = EngineOptions(
        jobs=jobs, cache_dir=cache_dir, task_timeout=task_timeout,
        fault_plan=fault_plan,
    )
    note(
        f"running {len(cells)} cells over {len(suite)} benchmarks "
        f"({options.effective_jobs()} jobs, cache "
        f"{cache_dir if cache_dir else 'off'})"
    )
    outcomes = run_cells(cells, options, progress=progress)
    for outcome in outcomes:
        if not outcome.ok:
            # A failed timing cell gaps every figure it served.
            served = (
                _SECTION_CONFIGS if outcome.cell.section == "timing"
                else (outcome.cell.section,)
            )
            for section_name in served:
                failures_by_section.setdefault(
                    section_name, []
                ).append(outcome)
        if profiler is not None:
            profiler.merge(outcome.phases)
    render_started = time.perf_counter()
    merged = _merge(suite, outcomes, period)

    for title, section_name, renderer in _RENDER_PLAN:
        body = getattr(merged[section_name], renderer)()
        section(title, body, section_name)

    # The elapsed time goes to the progress channel, not the document,
    # so reports stay byte-comparable across runs and job counts.
    note(f"report complete in {time.time() - started:.1f}s")
    out.write("_Generated by repro.harness.runall._\n")
    render_seconds += time.perf_counter() - render_started
    if profiler is not None:
        profiler.note("render", render_seconds)
    text = out.getvalue()
    # Gap-row invariant: every failed cell must surface as an explicit
    # degradation annotation — a silently missing number is the one
    # outcome the failure contract forbids.
    for section_failures in failures_by_section.values():
        for outcome in section_failures:
            if f"(degraded: cell {outcome.cell.label} failed" not in text:
                raise RuntimeError(
                    f"report invariant violated: failed cell "
                    f"{outcome.cell.label} ({outcome.error}) left no "
                    f"degradation annotation in the document"
                )
    return text
