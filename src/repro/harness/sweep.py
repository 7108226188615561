"""Declarative sweep engine: suite descriptors → run table.

``run_sweep`` expands a validated :class:`repro.sweepspec.SweepSpec`
into run-table rows and submits one ``"sweep-batch"`` :class:`TaskCell`
per (workload, opt level, repetition) group to the parallel engine
(:mod:`repro.harness.parallel`).  The group cell attaches its trace
once: timing rows share one
:func:`~repro.uarch.pipeline.simulate_batch` call, and traffic rows
walk the trace columns once per row.  Each row's metrics are cached
under its own ``"sweep"`` key, which bakes in every resolved machine
field, the opt level, the window and the repetition: a re-run of the
same suite (or any suite that crosses the same design points) loads
those rows instead of simulating them, which is what makes sweeps
resumable.

Determinism contract: the *run table* (``run_table_json``) and the
rendered summary depend only on the descriptor and the simulated
metrics — row order is the canonical expansion order, never worker
scheduling — so they are byte-identical across ``--jobs`` values and
across warm re-runs.  Provenance that legitimately varies between
runs (per-row cache hits, wall times, attempt counts, worker count)
is quarantined in the separate ``meta`` payload.

A group cell that fails after its retry degrades every row of its
group to an annotated gap — ``error`` set, ``metrics`` null — the way
a failed report cell gaps every section it serves; the sweep still
completes and the summary names every degraded row.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import UsageError
from repro.harness import chaos
from repro.harness.parallel import (
    _MISS,
    CellOutcome,
    EngineOptions,
    TaskCell,
    run_cells,
)
from repro.harness.report import percent, render_table
from repro.sweepspec import SweepPoint, SweepSpec

#: Metric columns per sweep kind, in run-table column order.
TIMING_METRICS = (
    "instructions", "baseline_cycles", "cycles", "baseline_ipc", "ipc",
    "speedup", "svf_morphed", "svf_rerouted", "svf_fills",
    "svf_squashes", "svf_disables",
)
TRAFFIC_METRICS = ("qw_in", "qw_out", "qw_total")


def metric_names(kind: str) -> Tuple[str, ...]:
    """The fixed metric column set of one sweep kind."""
    return TIMING_METRICS if kind == "timing" else TRAFFIC_METRICS


# ---------------------------------------------------------------------------
# Group execution (runs inside engine workers)
# ---------------------------------------------------------------------------


def _machine_fields(params: Tuple[Tuple[str, Any], ...]) -> Dict[str, Any]:
    """A row key's resolved machine fields: its params minus kind/opt/rep."""
    return {
        name: value for name, value in params
        if name not in ("kind", "opt", "rep")
    }


def _timing_config_pair(machine_fields: Mapping[str, Any]):
    """(svf-less baseline, variant) MachineConfigs for one timing row.

    The baseline is the same machine with the stack unit detached, so
    machine-level axes (width, AGU depth, ports) move both runs while
    ``svf_*`` axes move only the variant — the comparison every
    ablation in ``benchmarks/`` makes by hand.
    """
    import dataclasses

    from repro.api import MachineSpec

    spec = MachineSpec(**dict(machine_fields))
    baseline_spec = dataclasses.replace(spec, svf_mode="none")
    return baseline_spec.config(), spec.config()


def _metrics_from_stats(baseline, run) -> Dict[str, Any]:
    """The run-table metrics dict for one (baseline, variant) pair."""
    return {
        "instructions": run.instructions,
        "baseline_cycles": baseline.cycles,
        "cycles": run.cycles,
        "baseline_ipc": round(baseline.ipc, 6),
        "ipc": round(run.ipc, 6),
        "speedup": round(run.speedup_over(baseline), 6),
        "svf_morphed": run.svf_morphed,
        "svf_rerouted": run.svf_rerouted,
        "svf_fills": run.svf_fills,
        "svf_squashes": run.svf_squashes,
        "svf_disables": int(run.extras.get("svf_disables", 0)),
    }


def _traffic_metrics(trace, machine_fields: Mapping[str, Any]) -> Dict:
    """Walk the trace columns through a stand-alone SVF; report quad-words."""
    from repro.core.svf import StackValueFile
    from repro.trace.regions import STACK_REGION_FLOOR

    svf = StackValueFile(
        capacity_bytes=machine_fields["svf_capacity"],
        granularity=machine_fields["svf_granularity"],
    )
    access = svf.access
    update_sp = svf.update_sp
    col_sp = trace.sp
    if len(trace):
        update_sp(col_sp[0])
    for index, (flags, addr, size) in enumerate(
        zip(trace.flags, trace.addr, trace.size)
    ):
        if flags & 3 and addr >= STACK_REGION_FLOOR:  # stack load/store
            access(addr, size, flags & 2)
        if flags & 32:  # sp_update
            update_sp(col_sp[index])
    return {
        "qw_in": svf.qw_in,
        "qw_out": svf.qw_out,
        "qw_total": svf.qw_in + svf.qw_out,
    }


def run_sweep_batch_cell(cell: TaskCell) -> Dict[Tuple, Dict[str, Any]]:
    """Compute one (workload, opt, rep) group of rows (``"sweep-batch"``).

    The cell's ``members`` param lists the params of the group's row
    keys (see :func:`point_cell`), which differ only in machine
    fields.  Warm rows load from their own ``"sweep"`` cell-cache
    keys, which count ``cell_cache_hits`` / ``cell_cache_misses`` as
    the engine's do.  The cold rows share one trace attach: timing rows
    time every (svf-less baseline, variant) pair in one
    :func:`repro.uarch.pipeline.simulate_batch` call, and traffic rows
    walk the trace once each.  Each cold row's metrics are then stored
    under its own key, so a partially warm group recomputes only its
    cold rows.  Any exception fails the whole cell: the engine retries
    it and then degrades every row of the group.

    Returns ``{row params: {"metrics": ..., "cache_hit": bool}}``;
    :func:`run_sweep` fans the entries back out to run-table rows.
    """
    from repro.lang.codegen import CodegenOptions
    from repro.uarch.pipeline import simulate_batch
    from repro.workloads import cached_trace, get_disk_trace_cache, workload

    cache = get_disk_trace_cache()
    entries: Dict[Tuple, Dict[str, Any]] = {}
    cold: List[TaskCell] = []
    for params in dict.fromkeys(cell.param("members")):
        row = TaskCell("sweep", cell.benchmark, cell.window, params)
        metrics = cache.load_cell(row)
        if metrics is _MISS:
            cold.append(row)
        else:
            entries[params] = {"metrics": metrics, "cache_hit": True}
    if not cold:
        return entries

    trace = cached_trace(
        workload(cell.benchmark), cell.window,
        options=CodegenOptions(opt_level=cell.param("opt", 0)),
    )
    machines = [_machine_fields(row.params) for row in cold]
    if cell.param("kind") == "traffic":
        computed = [_traffic_metrics(trace, machine) for machine in machines]
    else:
        stats = simulate_batch(trace, [
            config
            for machine in machines
            for config in _timing_config_pair(machine)
        ])
        computed = [
            _metrics_from_stats(stats[2 * slot], stats[2 * slot + 1])
            for slot in range(len(cold))
        ]
    for row, metrics in zip(cold, computed):
        cache.store_cell(row, metrics)
        entries[row.params] = {"metrics": metrics, "cache_hit": False}
    return entries


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


def point_cell(spec: SweepSpec, point: SweepPoint) -> TaskCell:
    """The cell-cache key for one run-table row.

    Params spell out the full resolved machine (not just the swept
    axes) plus kind/opt/rep, so the key is the complete design-point
    identity: suites with different bases never collide, and suites
    crossing the same point share cached metrics.
    """
    if spec.kind == "traffic":
        machine = tuple(
            (name, value) for name, value in point.machine
            if name in ("svf_capacity", "svf_granularity")
        )
    else:
        machine = point.machine
    params = (
        ("kind", spec.kind),
        ("opt", point.opt_level),
        ("rep", point.repetition),
    ) + machine
    return TaskCell("sweep", point.workload, spec.window, params)


def plan_cells(spec: SweepSpec) -> Tuple[List[SweepPoint], List[TaskCell]]:
    """Expand the suite: canonical row order plus a cache-friendly
    submission order (combo-major, so cold workers touch distinct
    benchmarks before piling onto one trace)."""
    points = spec.expand()
    order = sorted(
        range(len(points)),
        key=lambda index: (
            points[index].levels,
            points[index].opt_level,
            points[index].repetition,
        ),
    )
    cells = [point_cell(spec, points[index]) for index in order]
    return points, cells


def _fuse_cells(
    spec: SweepSpec, cells: Sequence[TaskCell]
) -> Tuple[List[TaskCell], Dict[TaskCell, TaskCell]]:
    """Group the row keys that share (workload, opt, rep) into one
    ``"sweep-batch"`` cell each — the only cell a sweep submits.

    Grouping is submission shape only: every row keeps its own
    cell-cache key and its row bytes (the group runner fans results
    back out per row).  Returns the submission list, in the order of
    each group's first row (preserving :func:`plan_cells`'s
    cache-friendly ordering), and the row → group map the fan-in
    uses.  Chaos runs plan their faults over this submission.
    """
    groups: Dict[Tuple, List[TaskCell]] = {}
    for cell in cells:
        key = (cell.benchmark, cell.param("opt", 0), cell.param("rep", 0))
        groups.setdefault(key, []).append(cell)
    submit: List[TaskCell] = []
    group_of: Dict[TaskCell, TaskCell] = {}
    for (benchmark, opt_level, repetition), members in groups.items():
        group = TaskCell(
            "sweep-batch", benchmark, spec.window,
            (
                ("kind", spec.kind),
                ("opt", opt_level),
                ("rep", repetition),
                ("members", tuple(member.params for member in members)),
            ),
        )
        submit.append(group)
        group_of.update((member, group) for member in members)
    return submit, group_of


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    """One run-table row: identity, metrics (or an annotated gap)."""

    workload: str
    opt_level: int
    repetition: int
    levels: Tuple[Tuple[str, Any], ...]
    metrics: Optional[Mapping[str, Any]] = None
    error: Optional[str] = None
    #: provenance (varies run to run; excluded from the run table)
    cache_hit: bool = False
    elapsed: float = 0.0
    attempts: int = 1

    def __post_init__(self):
        # Gap-row invariant: a row either carries metrics or names its
        # failure — never both, never neither.  A row violating this
        # would render as a silent blank instead of an annotated gap.
        if (self.metrics is None) == (self.error is None):
            raise ValueError(
                f"sweep row {self.workload!r} must set exactly one of "
                f"metrics/error (metrics={self.metrics!r}, "
                f"error={self.error!r})"
            )

    @property
    def ok(self) -> bool:
        return self.error is None

    def metric(self, name: str, default: Any = None) -> Any:
        if self.metrics is None:
            return default
        return self.metrics.get(name, default)

    def level(self, name: str, default: Any = None) -> Any:
        """The row's assignment for one grid axis."""
        return dict(self.levels).get(name, default)

    def label(self) -> str:
        """Human-readable row identity for annotations/progress."""
        parts = [self.workload]
        if self.opt_level:
            parts.append(f"-O{self.opt_level}")
        if self.levels:
            parts.append(
                "[" + ", ".join(f"{axis}={value}"
                                for axis, value in self.levels) + "]"
            )
        if self.repetition:
            parts.append(f"rep{self.repetition}")
        return " ".join(parts)

    def table_dict(self) -> Dict[str, Any]:
        """Deterministic run-table form (no timing, no cache flags)."""
        return {
            "workload": self.workload,
            "opt_level": self.opt_level,
            "repetition": self.repetition,
            "levels": {axis: value for axis, value in self.levels},
            "metrics": dict(self.metrics) if self.metrics is not None
            else None,
            "error": self.error,
        }

    def meta_dict(self) -> Dict[str, Any]:
        """Provenance form (cache hit, wall time, attempts)."""
        return {
            "workload": self.workload,
            "opt_level": self.opt_level,
            "repetition": self.repetition,
            "levels": {axis: value for axis, value in self.levels},
            "cache_hit": self.cache_hit,
            "elapsed_seconds": round(self.elapsed, 6),
            "attempts": self.attempts,
        }


@dataclass(frozen=True)
class SweepOptions:
    """Frozen knobs for one sweep run (``repro sweep``).

    ``jobs`` is the parallel-engine worker count (``None`` means
    ``os.cpu_count()``, ``1`` runs inline); the run table is
    byte-identical for every value.  ``use_cache`` gates the shared
    on-disk cache — with it on, completed rows of an interrupted or
    repeated sweep are skipped (resumability); ``cache_dir=None`` with
    ``use_cache=True`` resolves to the default per-user directory.
    With it off the run goes over a run-scoped temporary cache that
    nothing reads before or after the run.  ``task_timeout`` is the
    per-attempt deadline of each group cell, in seconds (> 0).
    ``out_dir`` is where artifacts land (``None`` writes nothing —
    callers consume the :class:`SweepResult` directly).
    """

    jobs: Optional[int] = None
    cache_dir: Optional[str] = None
    use_cache: bool = True
    task_timeout: float = 600.0
    out_dir: Optional[str] = None
    #: deterministic fault plan forwarded to the engine (chaos runs).
    fault_plan: Optional[chaos.FaultPlan] = None

    def __post_init__(self):
        if self.jobs is not None and self.jobs < 1:
            raise UsageError(f"jobs must be >= 1, not {self.jobs!r}")
        if not self.task_timeout > 0:
            raise UsageError(
                f"task_timeout must be > 0, not {self.task_timeout!r}"
            )

    def resolved_cache_dir(self) -> Optional[str]:
        """The persistent cache root, or ``None`` when caching is off
        (the engine then runs over a cache that lasts only the run)."""
        if not self.use_cache:
            return None
        if self.cache_dir is not None:
            return self.cache_dir
        from repro.harness.parallel import default_cache_dir

        return default_cache_dir()


@dataclass(frozen=True)
class SweepResult:
    """A finished sweep: the run table plus run provenance."""

    suite: str
    kind: str
    description: str
    window: int
    repetitions: int
    workloads: Tuple[str, ...]
    factors: Tuple[str, ...]
    rows: Tuple[SweepRow, ...]
    #: provenance (never enters the run table)
    jobs: int = 1
    elapsed_seconds: float = 0.0
    source: str = ""
    #: corrupt cache entries detected and unlinked during the run.
    corrupt_dropped: int = 0

    @property
    def ok(self) -> bool:
        """Every row carries metrics (no degraded gaps)."""
        return all(row.ok for row in self.rows)

    @property
    def cache_hits(self) -> int:
        return sum(1 for row in self.rows if row.cache_hit)

    def run_table(self) -> Dict[str, Any]:
        """The versioned, deterministic run-table payload."""
        from repro.api import versioned

        return versioned({
            "kind": "sweep",
            "suite": self.suite,
            "sweep_kind": self.kind,
            "description": self.description,
            "window": self.window,
            "repetitions": self.repetitions,
            "workloads": list(self.workloads),
            "factors": list(self.factors),
            "metrics": list(metric_names(self.kind)),
            "ok": self.ok,
            "rows": [row.table_dict() for row in self.rows],
        })

    def run_table_json(self, indent: int = 2) -> str:
        """Byte-stable JSON of :meth:`run_table` (sorted keys)."""
        return json.dumps(self.run_table(), indent=indent, sort_keys=True)

    def meta(self) -> Dict[str, Any]:
        """The versioned provenance payload (varies run to run)."""
        from repro.api import versioned

        return versioned({
            "kind": "sweep-meta",
            "suite": self.suite,
            "jobs": self.jobs,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "cells": len(self.rows),
            "cache_hits": self.cache_hits,
            "corrupt_dropped": self.corrupt_dropped,
            "source": self.source,
            "rows": [row.meta_dict() for row in self.rows],
        })

    def meta_json(self, indent: int = 2) -> str:
        return json.dumps(self.meta(), indent=indent, sort_keys=True)

    def render_summary(self) -> str:
        """Deterministic text summary: one table cell per design point.

        Timing sweeps show the speedup over the svf-less baseline;
        traffic sweeps show total quad-words.  Repetitions average
        (the simulator is deterministic, so this is a formality).
        Degraded rows render as ``--`` and are annotated below, the
        way report sections annotate failed cells.
        """
        combos: List[Tuple[Tuple[str, Any], ...]] = []
        for row in self.rows:
            if row.levels not in combos:
                combos.append(row.levels)
        headers = ["Benchmark"] + [
            ", ".join(f"{axis}={value}" for axis, value in combo)
            or "(base)"
            for combo in combos
        ]

        grouped: Dict[Tuple[str, int], Dict[Tuple, List[SweepRow]]] = {}
        for row in self.rows:
            group = grouped.setdefault((row.workload, row.opt_level), {})
            group.setdefault(row.levels, []).append(row)

        table_rows = []
        degraded: List[SweepRow] = []
        for (workload, opt_level), by_combo in grouped.items():
            label = workload if not opt_level else f"{workload} -O{opt_level}"
            cells = [label]
            for combo in combos:
                rows = by_combo.get(combo, [])
                values = [
                    row.metric(
                        "speedup" if self.kind == "timing" else "qw_total"
                    )
                    for row in rows if row.ok
                ]
                degraded.extend(row for row in rows if not row.ok)
                if not values:
                    cells.append("--")
                elif self.kind == "timing":
                    cells.append(percent(sum(values) / len(values)))
                else:
                    cells.append(str(round(sum(values) / len(values))))
            table_rows.append(tuple(cells))

        title = (
            f"Sweep {self.suite} ({self.kind}): "
            f"{len(self.workloads)} workloads x {len(combos)} configs "
            f"x {self.repetitions} reps, window {self.window:,}"
        )
        text = render_table(headers, table_rows, title=title)
        for row in degraded:
            text += (
                f"\n(degraded: row {row.label()} failed after "
                f"{row.attempts} attempt"
                f"{'s' if row.attempts != 1 else ''} — {row.error})"
            )
        return text

    def write_artifacts(self, out_dir: str) -> List[str]:
        """Persist run table, meta and summary under ``out_dir``.

        ``run_table.json`` and ``summary.txt`` are deterministic;
        ``run_meta.json`` carries the provenance that may vary.
        Returns the written paths.
        """
        root = Path(out_dir)
        root.mkdir(parents=True, exist_ok=True)
        written = []
        for filename, text in (
            ("run_table.json", self.run_table_json() + "\n"),
            ("run_meta.json", self.meta_json() + "\n"),
            ("summary.txt", self.render_summary() + "\n"),
        ):
            path = root / filename
            path.write_text(text)
            written.append(str(path))
        return written


# ---------------------------------------------------------------------------
# The engine entry point
# ---------------------------------------------------------------------------


def _outcome_counters(outcome: CellOutcome) -> Mapping[str, int]:
    phases = outcome.phases or {}
    counters = (
        phases.get("counters", {}) if isinstance(phases, dict) else {}
    )
    return counters if isinstance(counters, dict) else {}


def _corrupt_dropped(outcomes: Sequence[CellOutcome]) -> int:
    """Corrupt cache entries the run's workers detected and unlinked."""
    return sum(
        _outcome_counters(outcome).get("cache_corrupt_dropped", 0)
        for outcome in outcomes
    )


def run_sweep(
    spec: SweepSpec,
    options: Optional[SweepOptions] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Execute a validated suite descriptor; returns the run table.

    Rows come back in canonical expansion order regardless of worker
    scheduling; a group cell that fails after its retry degrades each
    of its rows to a gap row (``error`` set) instead of aborting the
    sweep.  With the disk cache enabled, completed rows of a previous
    run are reused — an interrupted sweep resumes where it left off.
    """
    options = options if options is not None else SweepOptions()
    started = time.perf_counter()
    points, cells = plan_cells(spec)
    submit, group_of = _fuse_cells(spec, cells)
    engine = EngineOptions(
        jobs=options.jobs,
        cache_dir=options.resolved_cache_dir(),
        task_timeout=options.task_timeout,
        fault_plan=options.fault_plan,
    )
    if progress is not None:
        progress(
            f"sweep {spec.name}: {len(cells)} rows in {len(submit)} "
            f"group cells over {len(spec.workloads)} workloads "
            f"({engine.effective_jobs()} jobs, cache "
            f"{engine.cache_dir if engine.cache_dir else 'off'})"
        )
    outcomes = run_cells(submit, engine, progress=progress)
    by_group = {outcome.cell: outcome for outcome in outcomes}

    rows = []
    for point in points:
        cell = point_cell(spec, point)
        group = group_of[cell]
        outcome = by_group.get(group)
        if outcome is None:
            raise RuntimeError(
                f"engine invariant violated: no outcome for planned "
                f"cell {group.label} — every submitted cell must come "
                f"back as a payload or an annotated gap"
            )
        entry = outcome.payload[cell.params] if outcome.ok else {}
        rows.append(SweepRow(
            workload=point.workload,
            opt_level=point.opt_level,
            repetition=point.repetition,
            levels=point.levels,
            metrics=entry.get("metrics"),
            error=outcome.error,
            cache_hit=entry.get("cache_hit", False),
            elapsed=outcome.elapsed / len(group.param("members")),
            attempts=outcome.attempts,
        ))

    result = SweepResult(
        suite=spec.name,
        kind=spec.kind,
        description=spec.description,
        window=spec.window,
        repetitions=spec.repetitions,
        workloads=spec.workloads,
        factors=spec.factor_names,
        rows=tuple(rows),
        jobs=engine.effective_jobs(),
        elapsed_seconds=time.perf_counter() - started,
        source=spec.source,
        corrupt_dropped=_corrupt_dropped(outcomes),
    )
    if options.out_dir is not None:
        written = result.write_artifacts(options.out_dir)
        if progress is not None:
            progress("wrote " + ", ".join(
                os.path.basename(path) for path in written
            ) + f" under {options.out_dir}")
    return result


__all__ = [
    "SweepOptions",
    "SweepResult",
    "SweepRow",
    "TIMING_METRICS",
    "TRAFFIC_METRICS",
    "metric_names",
    "plan_cells",
    "point_cell",
    "run_sweep",
    "run_sweep_batch_cell",
]
