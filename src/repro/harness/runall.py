"""Run the full experiment battery and render one report.

``generate_report`` regenerates every table and figure of the paper
(plus the characterization extensions) at the requested windows and
returns a single markdown document — the programmatic equivalent of
``pytest benchmarks/ --benchmark-only``, usable from the CLI
(``python -m repro report``) or a notebook.

The sweep is decomposed into (benchmark × experiment × window) cells
and executed by :mod:`repro.harness.parallel` — ``jobs`` workers over
a process pool, backed by the shared on-disk trace cache when
``cache_dir`` is set.  Results merge in suite order, so the document
is byte-identical for any ``jobs`` value; a cell that fails after its
retry renders as an annotated gap inside its section instead of
crashing the report.
"""

from __future__ import annotations

import hashlib
import io
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.harness.experiments import (
    CharacterizationResult,
    FIG5_CONFIGS,
    FIG6_STEPS,
    FIG7_CONFIGS,
    FIG9_CONFIGS,
    Fig5Result,
    Fig6Result,
    Fig7Result,
    Fig9Result,
    Table3Result,
    Table4Result,
    _suite,
    fig5_machine_pair,
    fig6_machine_pair,
    fig7_machine_pair,
    fig9_machine_pair,
    table1_workloads,
    table2_models,
)
from repro.harness.parallel import (
    CellOutcome,
    EngineOptions,
    TaskCell,
    TraceCache,
    run_cells,
)
from repro.profiling import PhaseProfiler
from repro.workloads import input_names, workload

#: (section, which window it uses, extra params) in report order.
_SECTION_PLAN: Tuple[Tuple[str, str], ...] = (
    ("characterize", "functional"),
    ("fig5", "timing"),
    ("fig6", "timing"),
    ("fig7", "timing"),
    ("table3", "functional"),
    ("table4", "functional"),
    ("fig9", "timing"),
)

#: Column labels of each timing figure, in table order; the section
#: content key hashes every column's (baseline, variant) machine pair.
_SECTION_CONFIGS: Dict[str, Tuple[str, ...]] = {
    "fig5": FIG5_CONFIGS,
    "fig6": FIG6_STEPS,
    "fig7": FIG7_CONFIGS,
    "fig9": FIG9_CONFIGS,
}

#: (document title, compute section, payload part) in document order.
#: One compute section can feed several document sections (Fig 1-3 and
#: first-touch all come from "characterize"; Fig 7 and Fig 8 both come
#: from "fig7"), so incremental reuse is per compute section.
_RENDER_PLAN: Tuple[Tuple[str, str, str], ...] = (
    ("Figure 1 — access distribution", "characterize", "fig1"),
    ("Figure 2 — stack depth", "characterize", "fig2"),
    ("Figure 3 — offset locality", "characterize", "fig3"),
    (
        "First-touch analysis (valid-bit rationale)",
        "characterize",
        "first_touch",
    ),
    ("Figure 5 — ideal morphing", "fig5", "fig5"),
    ("Figure 6 — progressive analysis", "fig6", "fig6"),
    ("Figure 7 — SVF vs stack cache", "fig7", "fig7"),
    ("Figure 8 — reference breakdown", "fig7", "fig8"),
    ("Table 3 — memory traffic", "table3", "table3"),
    ("Table 4 — context-switch writeback", "table4", "table4"),
    ("Figure 9 — SVF speedups by ports", "fig9", "fig9"),
)

#: expected payload parts per compute section (derived, kept explicit
#: for cached-payload validation).
_SECTION_PARTS: Dict[str, Tuple[str, ...]] = {}
for _title, _section, _part in _RENDER_PLAN:
    _SECTION_PARTS.setdefault(_section, ())
    _SECTION_PARTS[_section] += (_part,)

#: Analysis version per compute section — bump when the section's
#: analysis or rendering changes meaning, so incremental runs stop
#: addressing stale cached payloads.
_SECTION_VERSIONS: Dict[str, int] = {
    "characterize": 1,
    "fig5": 1,
    "fig6": 1,
    "fig7": 1,
    "table3": 1,
    "table4": 1,
    "fig9": 1,
}

_MACHINE_PAIRS: Dict[str, Callable[[str], Tuple]] = {
    "fig5": fig5_machine_pair,
    "fig6": fig6_machine_pair,
    "fig7": fig7_machine_pair,
    "fig9": fig9_machine_pair,
}


def section_content_key(
    section: str,
    suite: Sequence[str],
    window: int,
    period: int,
) -> str:
    """Content digest of everything that feeds one compute section.

    Covers the schema version, the section's analysis version, the
    instruction window, the compile options, every workload source the
    section consumes (all inputs for Table 3, the default input
    elsewhere), the machine-config pairs of the timing figures, and
    the functional knobs (Table 3 sizes, Table 4 period/capacity).
    Any change to any input changes the key, so cached section
    payloads never need in-place invalidation.
    """
    # Imported lazily: repro.api imports the harness package, so a
    # module-level import here would be circular.
    from repro.api import SCHEMA_VERSION, CompileOptions

    hasher = hashlib.sha256()

    def feed(text: str) -> None:
        hasher.update(text.encode("utf-8"))
        hasher.update(b"\x00")

    feed(f"schema={SCHEMA_VERSION}")
    feed(f"section={section}")
    feed(f"analysis-version={_SECTION_VERSIONS.get(section, 0)}")
    feed(f"window={window}")
    feed(f"compile={CompileOptions()!r}")
    if section == "table3":
        feed("sizes=(2048, 4096, 8192)")
    if section == "table4":
        feed(f"period={period}")
        feed("capacity=8192")
    for benchmark in suite:
        inputs = (
            input_names(benchmark) if section == "table3" else (None,)
        )
        for input_name in inputs:
            work = workload(benchmark, input_name)
            feed(f"workload={work.full_name}")
            feed(work.source())
    pair_fn = _MACHINE_PAIRS.get(section)
    if pair_fn is not None:
        for config in _SECTION_CONFIGS[section]:
            base, variant = pair_fn(config)
            feed(f"config={config}")
            feed(repr(base))
            feed(repr(variant))
    return hasher.hexdigest()[:24]


def _plan_cells(
    suite: Sequence[str],
    timing_window: int,
    functional_window: int,
    period: int,
    sections: Optional[Sequence[str]] = None,
) -> List[TaskCell]:
    """Section-major cell order: workers hit distinct benchmarks first,
    so cold-cache runs compute each trace once instead of racing on it.
    Timing figures plan one whole-row cell per benchmark — the drivers
    push every column of the row through one
    :func:`repro.uarch.pipeline.simulate_batch` call, which shares the
    column precompute and walks a shared baseline once, so splitting
    per config would repeat that work.  ``sections``
    restricts planning to a subset (the incremental mode plans only
    sections whose content keys changed)."""
    windows = {"timing": timing_window, "functional": functional_window}
    cells = []
    for section, window_kind in _SECTION_PLAN:
        if sections is not None and section not in sections:
            continue
        window = windows[window_kind]
        params: Tuple = ()
        if section == "table4":
            params = (("period", period),)
        for benchmark in suite:
            cells.append(TaskCell(section, benchmark, window, params))
    return cells


def _merge(
    suite: Sequence[str],
    outcomes: Sequence[CellOutcome],
    period: int,
) -> Dict[str, object]:
    """Fold per-cell payloads into result objects, in suite order.

    Timing figures arrive as whole-row payloads (one batched cell per
    benchmark).  A benchmark with a missing/failed cell drops out of
    that figure entirely, with the specific cell named in the
    degraded annotation.
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
        for result, section in ((fig5, "fig5"), (fig6, "fig6"),
                                (fig9, "fig9")):
            row = payload(section, benchmark)
            if row is not None:
                result.speedups[benchmark] = row
        seven = payload("fig7", benchmark)
        if seven is not None:
            fig7.speedups[benchmark] = seven["speedups"]
            fig7.svf_stats[benchmark] = seven["svf_stats"]
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


def _render_section_parts(
    section: str, merged: Dict[str, object]
) -> Dict[str, str]:
    """Render one compute section's document part(s) from merged results."""
    if section == "characterize":
        characterization = merged["characterize"]
        return {
            "fig1": characterization.render_fig1(),
            "fig2": characterization.render_fig2(),
            "fig3": characterization.render_fig3(),
            "first_touch": characterization.render_first_touch(),
        }
    if section == "fig7":
        return {
            "fig7": merged["fig7"].render(),
            "fig8": merged["fig7"].render_fig8(),
        }
    return {section: merged[section].render()}


def _valid_section_payload(section: str, payload) -> bool:
    """A cached section payload must carry exactly the expected parts."""
    return (
        isinstance(payload, dict)
        and set(payload) == set(_SECTION_PARTS[section])
        and all(isinstance(value, str) for value in payload.values())
    )


def generate_report(
    timing_window: int = 40_000,
    functional_window: int = 80_000,
    benchmarks: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    task_timeout: float = 600.0,
    profiler: Optional[PhaseProfiler] = None,
    incremental: bool = False,
    fault_plan=None,
) -> str:
    """Run everything; returns the report as markdown text.

    ``progress``, if given, is called with a status string before each
    stage and after each finished cell (e.g. ``print``).  ``jobs``
    picks the worker count (None → ``os.cpu_count()``, 1 → inline);
    ``cache_dir`` enables the shared on-disk trace cache.  The output
    is byte-identical across ``jobs`` values.

    ``profiler``, if given, accumulates the per-phase breakdown of the
    whole sweep: every cell's worker-side phase snapshot is merged in,
    plus the report's own ``render`` phase, and the cache counters
    (cell/trace hits and misses, sections reused).  The breakdown
    never enters the document, so profiled and unprofiled reports stay
    byte-identical.

    ``incremental`` (requires ``cache_dir``) keys every compute
    section by :func:`section_content_key` and reuses the cached
    rendered payload of any section whose key is unchanged — only
    changed sections plan cells at all.  Reused and re-rendered text
    concatenate to the same document, so incremental output stays
    byte-identical to a full run at every job count, warm and cold.
    Sections that degrade (failed cells) are never stored, so they
    re-run on the next invocation.

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

    windows = {"timing": timing_window, "functional": functional_window}
    section_cache: Optional[TraceCache] = None
    section_keys: Dict[str, str] = {}
    reused_parts: Dict[str, Dict[str, str]] = {}
    if incremental and cache_dir:
        section_cache = TraceCache(cache_dir)
        for section_name, window_kind in _SECTION_PLAN:
            key = section_content_key(
                section_name, suite, windows[window_kind], period
            )
            section_keys[section_name] = key
            payload = section_cache.load_section(section_name, key)
            if _valid_section_payload(section_name, payload):
                reused_parts[section_name] = payload
        if reused_parts:
            note(
                f"incremental: reusing {len(reused_parts)}/"
                f"{len(_SECTION_PLAN)} cached sections"
            )
    pending = [
        section_name
        for section_name, _ in _SECTION_PLAN
        if section_name not in reused_parts
    ]

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

    cells = _plan_cells(
        suite, timing_window, functional_window, period, sections=pending
    )
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
            failures_by_section.setdefault(
                outcome.cell.section, []
            ).append(outcome)
        if profiler is not None:
            profiler.merge(outcome.phases)
    render_started = time.perf_counter()
    merged = _merge(suite, outcomes, period)

    parts: Dict[str, Dict[str, str]] = dict(reused_parts)
    for section_name in pending:
        parts[section_name] = _render_section_parts(section_name, merged)
        if (
            section_cache is not None
            and section_name not in failures_by_section
        ):
            # Degraded sections are never stored: their gaps must not
            # masquerade as valid content on the next warm run.
            section_cache.store_section(
                section_name, section_keys[section_name], parts[section_name]
            )

    for title, section_name, part in _RENDER_PLAN:
        section(title, parts[section_name][part], section_name)

    if profiler is not None:
        profiler.count("sections_reused", len(reused_parts))
        profiler.count("sections_rendered", len(pending))
        if section_cache is not None:
            stats = section_cache.stats
            profiler.count("section_cache_hits", stats.section_hits)
            profiler.count("section_cache_misses", stats.section_misses)
            profiler.count("section_cache_stores", stats.section_stores)
            profiler.count("cache_corrupt_dropped", stats.corrupt_dropped)
            profiler.count(
                "cache_transient_errors", stats.transient_errors
            )

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
