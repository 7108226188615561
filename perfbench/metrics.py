"""Metric names, units, and how each is derived from repetition records.

End-to-end metrics are medians over the untraced repetitions of a run.
Per-layer metrics come from the traced repetitions: seconds from the
benchmark's own spans on timing-grid and stack-traffic, where it calls
each layer directly, and from the program's ``PhaseProfiler`` (summed
over both workers) on report-cold, where the layers run inside the
parallel engine; counts always come from the profiler and the engine.
A layer a workload does not use reads 0.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

from inputs import REPORT_JOBS
from spans import layer_self_seconds, self_times

#: (name, unit, bound).  Lower is better for every one of them.
#: ``fail_ratio`` is not among them: it is 0 on a correct run, so it
#: travels as the ``failed``/``attempted`` fields of the result.
#: Host speed on a shared 2-CPU machine drifts by about +-15% over
#: minutes (compare ``calibration_s`` across run documents), which
#: moves every time metric alike, so those take the largest bound.
#: Peak RSS depends on the inputs alone; the report's seed-drawn subset
#: moves it by a few percent.
END_TO_END = (
    ("wall_s", "s", 0.25),
    ("cpu_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.15),
    ("setup_s", "s", 0.25),
)

#: (name, unit, better) of every per-layer metric a traced run prints.
#: Work counts are "higher"; time, memory, overhead and failures "lower".
PER_LAYER = (
    ("lang.compile_s", "s", "lower"),
    ("lang.compile_o1_s", "s", "lower"),
    ("lang.programs", "count", "higher"),
    ("emulator.run_s", "s", "lower"),
    ("emulator.instructions", "count", "higher"),
    ("emulator.mips", "MIPS", "higher"),
    ("emulator.superblock_coverage", "fraction", "higher"),
    ("emulator.superblock_builds", "count", "lower"),
    ("uarch.timing_s", "s", "lower"),
    ("uarch.config_instructions", "count", "higher"),
    ("uarch.mips", "MIPS", "higher"),
    ("uarch.walks_saved_ratio", "fraction", "higher"),
    ("core.traffic_s", "s", "lower"),
    ("core.traffic_mips", "MIPS", "higher"),
    ("trace.analysis_s", "s", "lower"),
    ("trace.analysis_mips", "MIPS", "higher"),
    ("trace.column_mb", "MB", "lower"),
    ("harness.cells", "count", "higher"),
    ("harness.cells_failed", "count", "lower"),
    ("harness.retries", "count", "lower"),
    ("harness.recycled", "count", "lower"),
    ("harness.workers", "count", "higher"),
    ("harness.parallel_efficiency", "fraction", "higher"),
    ("harness.overhead_s", "s", "lower"),
    ("harness.shm_mb", "MB", "lower"),
    ("harness.shm_attach_ratio", "fraction", "higher"),
    ("harness.cache_mb", "MB", "lower"),
    ("harness.render_s", "s", "lower"),
    ("bench.layer_coverage", "fraction", "higher"),
    ("bench.tracing_overhead_s", "s", "lower"),
)

#: profiler phase behind each layer's seconds and item counts
_PHASES = {
    "lang": "compile",
    "emulator": "emulate",
    "uarch": "timing",
    "core": "traffic",
    "trace": "analysis",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _mips(items: float, seconds: float) -> float:
    return _ratio(items, seconds) / 1e6


def end_to_end(untraced: Sequence[dict],
               setup_samples: Sequence[float]) -> Dict[str, float]:
    """Medians over the untraced repetitions (and set-up probes)."""
    values = {
        name: statistics.median(rep[name] for rep in untraced)
        for name, _, _ in END_TO_END
        if name != "setup_s"
    }
    values["setup_s"] = statistics.median(setup_samples)
    return values


def layer_values(rep: dict) -> Dict[str, float]:
    """Per-layer values of one traced repetition (overhead excluded)."""
    spans: List[dict] = rep["spans"]
    phases = rep["profile"]["phases"]
    counters = rep["profile"]["counters"]
    counts = rep["counts"]

    def items(layer: str) -> int:
        return phases.get(_PHASES[layer], (0, 0.0, 0))[2]

    root = next(s["id"] for s in spans if s["name"] == "bench.workload")
    workload_span = spans[root]
    workload_s = workload_span["end"] - workload_span["start"]
    in_run = layer_self_seconds(spans, root)
    engine = rep.get("engine")

    if engine is None:
        # Direct calls: time each layer by the spans around its calls.
        own = self_times(spans)
        compiles = [s for s in spans if s["name"] == "lang.compile"]
        seconds = {layer: in_run.get(layer, 0.0) for layer in _PHASES}
        seconds["lang"] = sum(own[s["id"]] for s in compiles)
        compile_o1_s = sum(own[s["id"]] for s in compiles
                           if s["attrs"]["opt"] == 1)
        programs = len(compiles)
        column_bytes = counts["column_bytes"]
    else:
        # Inside the engine: the profiler's phase seconds, summed over
        # the workers.  The report compiles at -O0 only.
        seconds = {layer: phases.get(phase, (0, 0.0, 0))[1]
                   for layer, phase in _PHASES.items()}
        compile_o1_s = 0.0
        programs = phases.get("compile", (0, 0.0, 0))[0]
        # Each trace is published to shared memory once, as columns.
        column_bytes = engine["shm_bytes"]

    emulated = items("emulator")
    values = {
        "lang.compile_s": seconds["lang"],
        "lang.compile_o1_s": compile_o1_s,
        "lang.programs": programs,
        "emulator.run_s": seconds["emulator"],
        "emulator.instructions": emulated,
        "emulator.mips": _mips(emulated, seconds["emulator"]),
        "emulator.superblock_coverage": _ratio(
            counters.get("superblock_replayed_instructions", 0), emulated
        ),
        "emulator.superblock_builds": counters.get("superblock_builds", 0),
        "uarch.timing_s": seconds["uarch"],
        "uarch.config_instructions": items("uarch"),
        "uarch.mips": _mips(items("uarch"), seconds["uarch"]),
        "uarch.walks_saved_ratio": _ratio(
            counters.get("batch_walks_saved", 0),
            counters.get("batch_configs", 0),
        ),
        "core.traffic_s": seconds["core"],
        "core.traffic_mips": _mips(items("core"), seconds["core"]),
        "trace.analysis_s": seconds["trace"],
        "trace.analysis_mips": _mips(items("trace"), seconds["trace"]),
        "trace.column_mb": column_bytes / 1e6,
        "bench.layer_coverage": _ratio(
            sum(s for layer, s in in_run.items() if layer != "bench"),
            workload_s,
        ),
    }
    values.update(_harness_values(rep, engine, phases, counters))
    return values


def _harness_values(rep, engine, phases, counters) -> Dict[str, float]:
    if engine is None:
        return {name: 0 for name, _, _ in PER_LAYER
                if name.startswith("harness.")}
    phase_s = sum(seconds for _, seconds, _ in phases.values())
    attaches = counters.get("shm_trace_attaches", 0)
    publishes = counters.get("shm_trace_publishes", 0)
    return {
        "harness.cells": counters.get("cell_cache_misses", 0)
        + counters.get("cell_cache_hits", 0),
        "harness.cells_failed": sum(
            1 for value in rep["ops"].values() if value is None
        ),
        "harness.retries": rep["counts"]["retries"],
        "harness.recycled": engine["recycled"],
        "harness.workers": engine["workers"],
        "harness.parallel_efficiency": _ratio(
            phase_s, REPORT_JOBS * rep["wall_s"]
        ),
        "harness.overhead_s": rep["cpu_s"] - phase_s,
        "harness.shm_mb": engine["shm_bytes"] / 1e6,
        "harness.shm_attach_ratio": _ratio(attaches, attaches + publishes),
        "harness.cache_mb": rep["counts"]["cache_bytes"] / 1e6,
        "harness.render_s": phases.get("render", (0, 0.0, 0))[1],
    }


def per_layer(traced: Sequence[dict],
              untraced: Sequence[dict]) -> Dict[str, float]:
    """Medians of the per-layer values over the traced repetitions."""
    each = [layer_values(rep) for rep in traced]
    values = {
        name: statistics.median(v[name] for v in each)
        for name in each[0]
    }
    values["bench.tracing_overhead_s"] = (
        statistics.median(rep["wall_s"] for rep in traced)
        - statistics.median(rep["wall_s"] for rep in untraced)
    )
    return values
