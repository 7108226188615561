"""Parallel experiment engine: picklable task cells over a process pool.

The report/prediction sweeps decompose into independent
(benchmark × experiment × window) :class:`TaskCell` units.  The engine
fans cells out over a ``ProcessPoolExecutor`` (``jobs`` workers,
default ``os.cpu_count()``), then the caller merges the picklable
payloads back **in suite order**, so the rendered document is
byte-identical to a serial (``jobs=1``) run — worker scheduling can
reorder execution but never the merge.

Failure semantics: a cell that raises inside a worker is retried once
(``EngineOptions.retries``); a cell that exhausts its retries or its
per-cell timeout degrades to a :class:`CellOutcome` with ``error`` set,
which the report renders as an annotated gap instead of crashing the
whole sweep.  ``task_timeout`` is a **per-attempt deadline measured
from submission**: each worker slot is a single-process executor, so
a submitted cell starts immediately and the deadline bounds its real
runtime; a cell that blows its deadline (or whose worker dies) has
its worker killed and replaced, so one hung cell can never hold a
pool slot hostage, and ``elapsed`` always reports real wall time.
``EngineOptions.fault_plan`` installs a :mod:`repro.harness.chaos`
fault plan in every worker, which is how the chaos harness proves all
of the above deterministically.

Every run is backed by :class:`TraceCache`, an on-disk compile/trace
cache keyed by (benchmark, input, opt level, window) and versioned by
:data:`repro.api.SCHEMA_VERSION`: worker processes reuse each
functional trace instead of re-emulating it.  It is the only way a
trace crosses processes.  The cache installs itself as the second
level behind the per-process cache of
:func:`repro.workloads.cached_trace`, which the engine empties as each
cell ends, so a worker holds only the traces of its current cell.  The
cache also memoizes finished cell payloads, so a warm re-run skips the
timing model as well.  A persistent ``cache_dir`` shares all of this
across invocations; without one (``cache_dir=None``) the run goes over
a run-scoped temporary directory that :func:`run_cells` removes when
it returns.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro import profiling
from repro.harness import chaos
from repro.trace.serialization import TraceFormatError, load_trace, write_trace
from repro.workloads import (
    clear_trace_cache,
    get_disk_trace_cache,
    input_names,
    set_disk_trace_cache,
    workload,
)


# ---------------------------------------------------------------------------
# Shared on-disk trace cache
# ---------------------------------------------------------------------------


def default_cache_dir() -> str:
    """``$XDG_CACHE_HOME``/repro-svf (or ~/.cache/repro-svf)."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro-svf")


@dataclass
class CacheStats:
    """Per-namespace cache traffic.

    ``hits``/``misses``/``stores`` count functional-trace operations
    (the historical meaning); cell payloads and report sections have
    their own counters so ``--profile`` can attribute a warm run to
    the level that actually absorbed it.

    ``corrupt_dropped`` and ``transient_errors`` split the two ways a
    read can go wrong, across all namespaces: a **corrupt** entry
    (truncated/bit-flipped payload) is unlinked so it can never be
    served, while a **transient** I/O error (EINTR, a permission blip,
    a reader racing a writer) leaves the entry on disk — it may be
    perfectly valid for the next reader.  Both degrade to a miss.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    cell_hits: int = 0
    cell_misses: int = 0
    cell_stores: int = 0
    section_hits: int = 0
    section_misses: int = 0
    section_stores: int = 0
    corrupt_dropped: int = 0
    transient_errors: int = 0


#: distinguishes "entry absent" from a legitimately-None payload.
_MISS = object()


def _escape_key_part(value: Any) -> str:
    """Escape the structural separators of cell-cache file names.

    Cell keys join parts with ``.`` and bind names to values with
    ``-``; a param value containing either (a float machine field, a
    dotted label) could otherwise make two distinct cells share one
    path and serve each other's payloads.  Escaping only the three
    special characters keeps every existing key for plain values
    byte-identical, so warm caches stay warm.
    """
    return (
        str(value)
        .replace("%", "%25")
        .replace(".", "%2E")
        .replace("-", "%2D")
    )


class TraceCache:
    """On-disk store under ``<root>/v<SCHEMA_VERSION>/``, three namespaces:

    * functional traces, one ``.trace.bin`` file per (benchmark,
      input, opt level, window) key in the columnar binary format of
      :mod:`repro.trace.serialization` — shared by every section that
      replays the same trace, and loaded straight into the packed
      columns the hot loops consume (no per-record unpickling);
    * finished cell payloads (pickled) under ``cells/`` — a warm
      report skips the timing model entirely, not just emulation;
    * rendered report sections (pickled) under ``sections/``, keyed by
      a content digest of everything that feeds the section (see
      :func:`repro.harness.runall.section_content_key`) — the
      ``--incremental`` report mode reuses these without touching the
      cells at all.

    Writes are atomic (temp file + ``os.replace``) so concurrent
    workers can race on the same key safely — worst case both compute
    and one wins.  A corrupt or truncated entry is dropped and treated
    as a miss.  Invalidation is by schema version only: the directory
    name pins ``SCHEMA_VERSION``, which any payload- or
    trace-affecting change must bump (the columnar format itself
    bumped it to 2, so stale pickled caches are simply never seen).
    """

    def __init__(self, root: str):
        # Imported lazily: repro.api imports the harness package, so a
        # module-level import here would be circular.
        from repro.api import SCHEMA_VERSION

        self.root = Path(root) / f"v{SCHEMA_VERSION}"
        self.root.mkdir(parents=True, exist_ok=True)
        self.cells_root = self.root / "cells"
        self.sections_root = self.root / "sections"
        self.stats = CacheStats()

    def path_for(self, key) -> Path:
        benchmark, input_name, opt_level, window = key
        window_tag = "full" if window is None else str(window)
        return self.root / (
            f"{benchmark}.{input_name}.O{opt_level}.w{window_tag}.trace.bin"
        )

    def cell_path_for(self, cell: "TaskCell") -> Path:
        window_tag = "full" if cell.window is None else str(cell.window)
        parts = [cell.section, cell.benchmark, f"w{window_tag}"]
        parts += [
            f"{_escape_key_part(name)}-{_escape_key_part(value)}"
            for name, value in cell.params
        ]
        return self.cells_root / (".".join(parts) + ".cell.pkl")

    def _read(self, path: Path, kind: str) -> Any:
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            self._bump(kind, "misses")
            return _MISS
        except OSError:
            # Transient I/O error (EINTR, permission blip, reader
            # racing a writer): the entry may be perfectly valid, so
            # it must survive for the next reader.
            self.stats.transient_errors += 1
            self._bump(kind, "misses")
            return _MISS
        try:
            # The digest prefix catches what unpickling alone cannot:
            # a flipped bit inside a pickled str/int often still
            # unpickles — to the wrong value.
            digest, payload = blob[:32], blob[32:]
            if hashlib.sha256(payload).digest() != digest:
                raise ValueError("cache entry digest mismatch")
            value = pickle.loads(payload)
        except Exception:
            # Genuine corruption (truncated/bit-flipped payload): drop
            # the entry so it can never be served.
            self.stats.corrupt_dropped += 1
            try:
                path.unlink()
            except OSError:
                pass
            self._bump(kind, "misses")
            return _MISS
        self._bump(kind, "hits")
        return value

    def _write(self, path: Path, value: Any, kind: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        descriptor, temp_path = tempfile.mkstemp(
            dir=str(path.parent), suffix=".tmp"
        )
        try:
            blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(hashlib.sha256(blob).digest())
                handle.write(blob)
            os.replace(temp_path, path)
        except Exception:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            return
        self._bump(kind, "stores")

    def _bump(self, kind: str, event: str) -> None:
        setattr(
            self.stats,
            f"{kind}_{event}",
            getattr(self.stats, f"{kind}_{event}") + 1,
        )

    def load(self, key):
        """Columnar trace for ``key``, or None on miss/corruption."""
        path = self.path_for(key)
        try:
            trace = load_trace(str(path))
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (TraceFormatError, ValueError):
            # Corrupt format: unlink so the entry is never served.
            self.stats.corrupt_dropped += 1
            try:
                path.unlink()
            except OSError:
                pass
            self.stats.misses += 1
            return None
        except OSError:
            # Transient I/O error: a valid entry must not be lost.
            self.stats.transient_errors += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return trace

    def store(self, key, trace) -> None:
        """Atomically persist a trace in the columnar binary format."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        descriptor, temp_path = tempfile.mkstemp(
            dir=str(path.parent), suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                write_trace(handle, trace)
            os.replace(temp_path, path)
        except Exception:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            return
        self.stats.stores += 1

    def load_cell(self, cell: "TaskCell") -> Any:
        """Finished payload for ``cell``, or the ``_MISS`` sentinel."""
        return self._read(self.cell_path_for(cell), "cell")

    def store_cell(self, cell: "TaskCell", payload: Any) -> None:
        self._write(self.cell_path_for(cell), payload, "cell")

    def section_path_for(self, section: str, key: str) -> Path:
        return self.sections_root / f"{section}.{key}.section.pkl"

    def load_section(self, section: str, key: str) -> Any:
        """Rendered payload for a section content key, or ``_MISS``.

        The content key bakes in every input of the section (workload
        sources, compile options, machine specs, windows, analysis
        version), so a stale entry is simply never addressed — there
        is no in-place invalidation to get wrong.
        """
        return self._read(self.section_path_for(section, key), "section")

    def store_section(self, section: str, key: str, payload: Any) -> None:
        self._write(self.section_path_for(section, key), payload, "section")


# ---------------------------------------------------------------------------
# Task cells
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaskCell:
    """One picklable unit of sweep work: section × benchmark × window."""

    section: str
    benchmark: str
    window: Optional[int]
    #: extra hashable keyword parameters, e.g. (("period", 3200),)
    params: Tuple[Tuple[str, Any], ...] = ()

    @property
    def label(self) -> str:
        return f"{self.section}×{self.benchmark}"

    def param(self, name: str, default: Any = None) -> Any:
        return dict(self.params).get(name, default)


def _cell_characterize(cell: TaskCell) -> Dict[str, Any]:
    from repro.harness.experiments import characterize

    result = characterize([cell.benchmark], max_instructions=cell.window)
    name = cell.benchmark
    return {
        "distribution": result.distributions[name],
        "depth": result.depth_profiles[name],
        "locality": result.localities[name],
        "first_touch": result.first_touch[name],
    }


def _cell_timing(cell: TaskCell) -> Dict[str, Any]:
    """One benchmark's row of each timing figure the cell names, from
    one batch (see :func:`repro.harness.experiments.timing_rows`)."""
    from repro.harness.experiments import timing_rows

    figures = cell.param("figures").split("+")
    return timing_rows(cell.benchmark, cell.window, figures)


def _cell_table3(cell: TaskCell) -> Dict[str, Dict[int, Any]]:
    from repro.harness.experiments import table3_memory_traffic

    inputs = [
        workload(cell.benchmark, input_name)
        for input_name in input_names(cell.benchmark)
    ]
    result = table3_memory_traffic(
        max_instructions=cell.window, inputs=inputs
    )
    return result.traffic


def _cell_table4(cell: TaskCell) -> Tuple[float, float]:
    from repro.harness.experiments import table4_context_switch

    result = table4_context_switch(
        [cell.benchmark],
        max_instructions=cell.window,
        period=cell.param("period", 25_000),
    )
    return result.rows[cell.benchmark]


def _cell_prediction(cell: TaskCell):
    from repro.harness.prediction import check_workload

    return check_workload(
        cell.benchmark,
        max_instructions=cell.window,
        capacity_bytes=cell.param("capacity_bytes", 8192),
    )


def _cell_lint(cell: TaskCell):
    from repro.analysis.lint import lint_workload
    from repro.lang.codegen import CodegenOptions

    options = None
    opt_level = cell.param("opt_level")
    if opt_level is not None:
        options = CodegenOptions(opt_level=opt_level)
    return lint_workload(cell.benchmark, options=options)


def _cell_sweep_batch(cell: TaskCell):
    """One group of sweep rows (see repro.harness.sweep)."""
    from repro.harness.sweep import run_sweep_batch_cell

    return run_sweep_batch_cell(cell)


_CELL_RUNNERS: Dict[str, Callable[[TaskCell], Any]] = {
    "characterize": _cell_characterize,
    "lint": _cell_lint,
    "sweep-batch": _cell_sweep_batch,
    "timing": _cell_timing,
    "table3": _cell_table3,
    "table4": _cell_table4,
    "prediction": _cell_prediction,
}

#: Sections whose runners manage the cell cache themselves, per row:
#: a group cell's identity lists every row's full machine, so an
#: engine-level entry would duplicate the rows' entries under an
#: unbounded key (and defeat per-row warm resume).  The engine skips
#: its own load/store for these and lets the runner count the per-row
#: hits and misses.
_SELF_CACHING_SECTIONS = frozenset({"sweep-batch"})


def _execute_cell(
    cell: TaskCell,
) -> Tuple[str, Any, float, profiling.Snapshot]:
    """Worker entry: never raises — failures travel back as payloads.

    Each cell runs under its own phase profiler (saved/restored, so
    inline runs nest inside any caller-scoped profiler) and ships the
    picklable snapshot back as the fourth tuple element; a cache hit
    ships no phases (none ran), only the hit counter, so warm-run
    breakdowns explain themselves without inventing wall time.
    """
    started = time.perf_counter()
    profiler = profiling.PhaseProfiler()
    previous = profiling.swap(profiler)
    cache = get_disk_trace_cache()
    stats = cache.stats
    corrupt_before = stats.corrupt_dropped
    transient_before = stats.transient_errors
    trace_hits, trace_misses = stats.hits, stats.misses

    def _finish(status: str, payload: Any):
        profiler.count(
            "cache_corrupt_dropped", stats.corrupt_dropped - corrupt_before
        )
        profiler.count(
            "cache_transient_errors",
            stats.transient_errors - transient_before,
        )
        return (
            status,
            payload,
            time.perf_counter() - started,
            profiler.snapshot(),
        )

    try:
        # The chaos hook may sleep, raise, or SIGKILL this process —
        # after the profiler swap so fault counters ship back in the
        # snapshot, before the cache lookup so a killed cell's retry
        # exercises the full lookup-or-compute path.
        chaos.on_cell_start(cell)
        self_caching = cell.section in _SELF_CACHING_SECTIONS
        if not self_caching:
            payload = cache.load_cell(cell)
            if payload is not _MISS:
                profiler.count("cell_cache_hits")
                return _finish("ok", payload)
            profiler.count("cell_cache_misses")
        runner = _CELL_RUNNERS.get(cell.section)
        if runner is None:
            raise KeyError(f"unknown cell section {cell.section!r}")
        payload = runner(cell)
        if not self_caching:
            cache.store_cell(cell, payload)
        profiler.count("trace_cache_hits", stats.hits - trace_hits)
        profiler.count("trace_cache_misses", stats.misses - trace_misses)
        return _finish("ok", payload)
    except Exception as exc:
        return _finish("error", f"{type(exc).__name__}: {exc}")
    finally:
        # The disk cache serves the next cell, so a worker holds only
        # the traces of the cell it is running.
        clear_trace_cache()
        profiling.swap(previous)


def _init_worker(
    cache_dir: str,
    fault_plan: Optional[chaos.FaultPlan] = None,
) -> None:
    set_disk_trace_cache(TraceCache(cache_dir))
    if fault_plan is not None:
        # Real workers take real SIGKILLs — the engine must survive
        # losing the process, not a polite exception.
        chaos.install(fault_plan, simulate_kill=False)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EngineOptions:
    """Scheduler knobs: parallelism, cache location, failure policy."""

    #: worker processes; None means ``os.cpu_count()``; 1 runs inline.
    jobs: Optional[int] = None
    #: on-disk cache root; None runs over a run-scoped temporary
    #: directory that :func:`run_cells` removes when it returns.
    cache_dir: Optional[str] = None
    #: per-attempt deadline in seconds, measured from submission.
    task_timeout: float = 600.0
    #: extra attempts after the first failure/timeout of a cell.
    retries: int = 1
    #: deterministic fault plan installed in every worker (chaos runs).
    fault_plan: Optional[chaos.FaultPlan] = None

    def effective_jobs(self) -> int:
        if self.jobs is None:
            return max(1, os.cpu_count() or 1)
        return max(1, self.jobs)


@dataclass
class EngineReport:
    """Post-run health facts the chaos invariant checker asserts on.

    Recorded by both the serial and the pool path after every
    :func:`run_cells` call (:func:`last_engine_report` returns the most
    recent one).  ``worker_pids`` is every worker process the run ever
    spawned — including ones that were killed and replaced — so "no
    orphan workers" is checkable from the outside without scanning the
    process table.
    """

    #: pid of every worker process spawned over the run's lifetime.
    worker_pids: Set[int] = field(default_factory=set)
    #: workers killed and replaced (timeout or broken process).
    recycled: int = 0
    #: attempts that blew their per-attempt deadline.
    timeouts: int = 0
    #: attempts lost to a dead worker (SIGKILL, crash).
    broken: int = 0


# perfbench's reads.  perfbench/ still imports these two functions and
# reads the three EngineReport attributes below, which described the
# shared-memory trace fan-out.  Traces now cross processes only
# through TraceCache, so each reads as "not used".  Delete this block
# together with perfbench's reads.
def shm_available() -> bool:
    return False


def leaked_shm_segments(prefix: Optional[str]) -> List[str]:
    return []


EngineReport.shm_prefix = None
EngineReport.shm_segments = 0
EngineReport.shm_bytes = 0


@dataclass
class CellOutcome:
    """What happened to one cell: payload on success, error on failure."""

    cell: TaskCell
    payload: Any = None
    error: Optional[str] = None
    elapsed: float = 0.0
    attempts: int = 1
    #: per-phase (calls, seconds, items) measured inside the worker;
    #: empty when the payload came from the cell cache.
    phases: profiling.Snapshot = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.phases is None:
            self.phases = {}

    @property
    def ok(self) -> bool:
        return self.error is None


#: the :class:`EngineReport` of the most recent :func:`run_cells`.
_LAST_REPORT: Optional[EngineReport] = None


def last_engine_report() -> Optional[EngineReport]:
    """Health report of the most recent :func:`run_cells` call."""
    return _LAST_REPORT


def run_cells(
    cells: Sequence[TaskCell],
    options: EngineOptions = EngineOptions(),
    progress: Optional[Callable[[str], None]] = None,
) -> List[CellOutcome]:
    """Execute every cell; outcomes come back in the order given.

    ``jobs == 1`` (or a single cell) runs inline in this process —
    the exact code path the workers run, so parallel and serial sweeps
    produce identical payloads.  Without a ``cache_dir`` the run goes
    over a ``repro-run-*`` temporary directory, removed when this
    returns: workers still share traces through it, but nothing is
    read from or left in a persistent cache.
    """
    if not options.cache_dir:
        with tempfile.TemporaryDirectory(prefix="repro-run-") as run_dir:
            return run_cells(
                cells, dataclasses.replace(options, cache_dir=run_dir),
                progress,
            )
    cells = list(cells)
    note = progress if progress is not None else (lambda message: None)
    if options.effective_jobs() == 1 or len(cells) <= 1:
        return _run_serial(cells, options, note)
    return _run_pool(cells, options, note)


def _note_outcome(
    note: Callable[[str], None], outcome: CellOutcome, done: int, total: int
) -> None:
    status = "ok" if outcome.ok else f"FAILED ({outcome.error})"
    retried = f", attempt {outcome.attempts}" if outcome.attempts > 1 else ""
    note(
        f"[{done}/{total}] {outcome.cell.label} {status} "
        f"({outcome.elapsed:.1f}s{retried})"
    )


def _run_serial(
    cells: List[TaskCell],
    options: EngineOptions,
    note: Callable[[str], None],
) -> List[CellOutcome]:
    global _LAST_REPORT
    previous_cache = get_disk_trace_cache()
    set_disk_trace_cache(TraceCache(options.cache_dir))
    previous_plan = None
    if options.fault_plan is not None:
        # Inline runs can't SIGKILL the caller's own process, so
        # ``kill`` faults surface as a ChaosKill error and ride the
        # same retry path a dead worker does.
        previous_plan = chaos.install(options.fault_plan,
                                      simulate_kill=True)
    try:
        outcomes = []
        for index, cell in enumerate(cells):
            attempts = 0
            while True:
                attempts += 1
                status, payload, elapsed, phases = _execute_cell(cell)
                if status == "ok" or attempts > options.retries:
                    break
                note(f"retrying {cell.label} ({payload})")
            outcome = CellOutcome(
                cell=cell,
                payload=payload if status == "ok" else None,
                error=None if status == "ok" else str(payload),
                elapsed=elapsed,
                attempts=attempts,
                phases=phases,
            )
            outcomes.append(outcome)
            _note_outcome(note, outcome, index + 1, len(cells))
        _LAST_REPORT = EngineReport()
        return outcomes
    finally:
        set_disk_trace_cache(previous_cache)
        if options.fault_plan is not None:
            chaos.install(previous_plan)


class _WorkerSlot:
    """One pool slot: a single-process executor plus its in-flight cell.

    Each slot owns a one-worker ``ProcessPoolExecutor``, so a submitted
    cell starts immediately and the per-attempt deadline measured from
    submission bounds the cell's *real* runtime — a shared executor
    would start queued cells whenever a worker freed up, making any
    submission-anchored deadline meaningless.  Killing a hung or dead
    worker breaks only this slot's executor; :meth:`recycle` replaces
    it and the rest of the pool never notices.
    """

    def __init__(self, options: EngineOptions, report: EngineReport):
        self._options = options
        self._report = report
        self._executor: Optional[ProcessPoolExecutor] = None
        self.future = None
        self.index = -1
        self.attempt = 0
        self.started = 0.0
        self.deadline = float("inf")

    def submit(self, index: int, attempt: int, cell: TaskCell) -> None:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=1,
                initializer=_init_worker,
                initargs=(self._options.cache_dir,
                          self._options.fault_plan),
            )
        self.index = index
        self.attempt = attempt
        self.started = time.monotonic()
        self.deadline = self.started + self._options.task_timeout
        self.future = self._executor.submit(_execute_cell, cell)
        # Submission spawns the worker; record its pid so the chaos
        # checker can assert nothing outlives the run.
        for proc in list(self._executor._processes.values()):
            self._report.worker_pids.add(proc.pid)

    def recycle(self) -> None:
        """Kill this slot's worker, reap it, and drop the executor."""
        executor, self._executor = self._executor, None
        self.future = None
        self.deadline = float("inf")
        if executor is None:
            return
        processes = list(executor._processes.values())
        for proc in processes:
            proc.kill()
        for proc in processes:
            proc.join()
        executor.shutdown(wait=False, cancel_futures=True)
        self._report.recycled += 1

    def close(self) -> None:
        """Graceful shutdown of a healthy, idle slot."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)


def _run_pool(
    cells: List[TaskCell],
    options: EngineOptions,
    note: Callable[[str], None],
) -> List[CellOutcome]:
    global _LAST_REPORT
    total = len(cells)
    outcomes: List[Optional[CellOutcome]] = [None] * total
    report = EngineReport()
    pending = deque((index, 1) for index in range(total))
    slots = [
        _WorkerSlot(options, report)
        for _ in range(min(options.effective_jobs(), total))
    ]
    done = 0

    def finish(index: int, attempt: int, status: str, payload: Any,
               elapsed: float, phases: profiling.Snapshot) -> None:
        nonlocal done
        if status != "ok" and attempt <= options.retries:
            note(f"retrying {cells[index].label} ({payload})")
            pending.append((index, attempt + 1))
            return
        outcome = CellOutcome(
            cell=cells[index],
            payload=payload if status == "ok" else None,
            error=None if status == "ok" else str(payload),
            elapsed=elapsed,
            attempts=attempt,
            phases=phases,
        )
        outcomes[index] = outcome
        done += 1
        _note_outcome(note, outcome, done, total)

    try:
        while done < total:
            for slot in slots:
                if slot.future is None and pending:
                    index, attempt = pending.popleft()
                    try:
                        slot.submit(index, attempt, cells[index])
                    except Exception as exc:
                        finish(index, attempt, "error",
                               f"{type(exc).__name__}: {exc}", 0.0, {})
            busy = [slot for slot in slots if slot.future is not None]
            if not busy:
                continue
            slack = min(slot.deadline for slot in busy) - time.monotonic()
            completed, _ = wait(
                {slot.future for slot in busy},
                # An infinite deadline waits in TIMEOUT_MAX-second
                # steps: a longer wait overflows the platform's time_t.
                timeout=min(max(0.0, slack), threading.TIMEOUT_MAX),
                return_when=FIRST_COMPLETED,
            )
            now = time.monotonic()
            for slot in busy:
                if slot.future in completed:
                    index, attempt = slot.index, slot.attempt
                    started, future = slot.started, slot.future
                    slot.future = None
                    slot.deadline = float("inf")
                    try:
                        status, payload, elapsed, phases = future.result()
                    except Exception as exc:
                        # The worker died mid-cell (SIGKILL, crash):
                        # the executor is broken, so replace it.
                        report.broken += 1
                        slot.recycle()
                        status = "error"
                        payload = (
                            f"worker died: {type(exc).__name__}: {exc}"
                        )
                        elapsed = now - started
                        phases = {}
                    finish(index, attempt, status, payload, elapsed,
                           phases)
                elif now >= slot.deadline:
                    index, attempt = slot.index, slot.attempt
                    elapsed = now - slot.started
                    report.timeouts += 1
                    slot.recycle()
                    finish(
                        index, attempt, "error",
                        f"timed out after {elapsed:.1f}s (deadline "
                        f"{options.task_timeout:.0f}s)",
                        elapsed, {},
                    )
    finally:
        for slot in slots:
            if slot.future is not None:
                # Interrupted mid-run: never leave a worker running.
                slot.recycle()
            else:
                slot.close()
        _LAST_REPORT = report
    return outcomes  # type: ignore[return-value]


__all__ = [
    "CacheStats",
    "CellOutcome",
    "EngineOptions",
    "EngineReport",
    "TaskCell",
    "TraceCache",
    "default_cache_dir",
    "last_engine_report",
    "run_cells",
]
