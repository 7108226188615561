"""Parallel experiment engine: picklable task cells over a process pool.

The report/prediction sweeps decompose into independent
(benchmark × experiment × window) :class:`TaskCell` units.  The engine
fans cells out over a ``ProcessPoolExecutor`` (``jobs`` workers,
default ``os.cpu_count()``), then the caller merges the picklable
payloads back **in suite order**, so the rendered document is
byte-identical to a serial (``jobs=1``) run — worker scheduling can
reorder execution but never the merge.

Failure semantics: a cell that raises inside a worker is retried once
(``_RETRIES``); a cell that exhausts its retries or its
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

Every run is backed by :class:`TraceCache`, an on-disk trace cache
whose directory is named by a digest of the code (:func:`code_digest`)
and whose entries are named by a digest of their keys: worker
processes reuse each functional trace instead of re-emulating it, and
no run reads an entry that other code computed.  It is the only way a
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
import functools
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
from typing import (
    Any, BinaryIO, Callable, Dict, List, Optional, Sequence, Set, Tuple,
)

from repro import profiling
from repro.harness import chaos
from repro.trace.serialization import load_trace, write_trace
from repro.workloads import (
    clear_trace_cache,
    get_disk_trace_cache,
    input_names,
    set_disk_trace_cache,
    workload,
)


# ---------------------------------------------------------------------------
# Shared on-disk cache
# ---------------------------------------------------------------------------


def default_cache_dir() -> str:
    """``$XDG_CACHE_HOME``/repro-svf (or ~/.cache/repro-svf)."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro-svf")


@functools.cache
def code_digest() -> str:
    """SHA-256 over every ``.py`` file of the ``repro`` package.

    It names the cache root, so the first run after any source edit
    starts in a fresh directory and never reads an entry that other
    code computed.
    """
    package = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        content = hashlib.sha256(path.read_bytes()).hexdigest()
        name = path.relative_to(package).as_posix()
        digest.update(f"{name} {content}\n".encode())
    return digest.hexdigest()


#: distinguishes "entry absent" from a legitimately-None payload.
_MISS = object()


def _read_payload(path: Path) -> Any:
    blob = path.read_bytes()
    # The digest prefix catches what unpickling alone cannot: a flipped
    # bit inside a pickled str/int often still unpickles — to the
    # wrong value.
    digest, payload = blob[:32], blob[32:]
    if hashlib.sha256(payload).digest() != digest:
        raise ValueError("cache entry digest mismatch")
    return pickle.loads(payload)


def _write_payload(handle: BinaryIO, payload: Any) -> None:
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    handle.write(hashlib.sha256(blob).digest())
    handle.write(blob)


class TraceCache:
    """On-disk store under ``<root>/<code digest>/`` (:func:`code_digest`).

    Each entry is named by the SHA-256 of its key's ``repr`` plus one
    of two suffixes:

    * ``.trace.bin`` — a functional trace, keyed by (benchmark, input,
      opt level, window), in the CRC-checked columnar format of
      :mod:`repro.trace.serialization`: shared by every cell that
      replays it, and loaded straight into the packed columns the hot
      loops consume;
    * ``.cell.pkl`` — a finished cell payload, keyed by the
      :class:`TaskCell`, pickled behind a SHA-256 of the pickle: a
      warm report skips the timing model, not just emulation.

    Traces and payloads share one read path and one write path.
    Writes are atomic (temp file + ``os.replace``), so racing workers
    both compute and one wins.  A read degrades every failure to a
    miss: an ``OSError`` is transient and leaves the entry for the
    next reader; anything else is corruption and unlinks the entry so
    it is never served.  Hits, misses, corrupt drops and transient
    errors count into the active profiler.
    """

    def __init__(self, root: str):
        self.root = Path(root) / code_digest()
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: Any, suffix: str) -> Path:
        return self.root / (
            hashlib.sha256(repr(key).encode()).hexdigest() + suffix
        )

    def path_for(self, key) -> Path:
        return self._path(key, ".trace.bin")

    def cell_path_for(self, cell: "TaskCell") -> Path:
        return self._path(cell, ".cell.pkl")

    def _read(self, path: Path, read: Callable[[Path], Any],
              counter: str) -> Any:
        """``read(path)``, or ``_MISS``; counts ``<counter>_hits`` or
        ``<counter>_misses``."""
        try:
            value = read(path)
        except FileNotFoundError:
            value = _MISS
        except OSError:
            # Transient (EINTR, a permission blip, a reader racing a
            # writer): the entry may be valid, so it stays.
            profiling.note_counter("cache_transient_errors")
            value = _MISS
        except Exception:
            # Corrupt (truncated, bit-flipped): drop the entry so it
            # is never served.
            profiling.note_counter("cache_corrupt_dropped")
            try:
                path.unlink()
            except OSError:
                pass
            value = _MISS
        profiling.note_counter(
            counter + ("_misses" if value is _MISS else "_hits")
        )
        return value

    def _write(self, path: Path, write: Callable[[BinaryIO, Any], Any],
               value: Any) -> None:
        descriptor, temp_path = tempfile.mkstemp(
            dir=str(self.root), suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                write(handle, value)
            os.replace(temp_path, path)
        except Exception:
            try:
                os.unlink(temp_path)
            except OSError:
                pass

    def load(self, key):
        """Columnar trace for ``key``, or None on a miss."""
        trace = self._read(self.path_for(key), load_trace, "trace_cache")
        return None if trace is _MISS else trace

    def store(self, key, trace) -> None:
        self._write(self.path_for(key), write_trace, trace)

    def load_cell(self, cell: "TaskCell") -> Any:
        """Finished payload for ``cell``, or the ``_MISS`` sentinel."""
        return self._read(self.cell_path_for(cell), _read_payload,
                          "cell_cache")

    def store_cell(self, cell: "TaskCell", payload: Any) -> None:
        self._write(self.cell_path_for(cell), _write_payload, payload)


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
    """One benchmark's row of every timing figure, from one batch (see
    :func:`repro.harness.experiments.timing_rows`)."""
    from repro.harness.experiments import timing_rows

    return timing_rows(cell.benchmark, cell.window)


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
#: its own load/store for these.
_SELF_CACHING_SECTIONS = frozenset({"sweep-batch"})


def _execute_cell(
    cell: TaskCell,
) -> Tuple[str, Any, float, profiling.Snapshot]:
    """Worker entry: never raises — failures travel back as payloads.

    Each cell runs under its own phase profiler (saved/restored, so
    inline runs nest inside any caller-scoped profiler) and ships the
    picklable snapshot back as the fourth tuple element, with the
    cache's counters in it; a cache hit ships no phases (none ran),
    so warm-run breakdowns explain themselves without inventing wall
    time.
    """
    started = time.perf_counter()
    profiler = profiling.PhaseProfiler()
    previous = profiling.swap(profiler)
    cache = get_disk_trace_cache()
    try:
        # The chaos hook may sleep, raise, or SIGKILL this process —
        # after the profiler swap so fault counters ship back in the
        # snapshot, before the cache lookup so a killed cell's retry
        # exercises the full lookup-or-compute path.
        chaos.on_cell_start(cell)
        self_caching = cell.section in _SELF_CACHING_SECTIONS
        payload = _MISS if self_caching else cache.load_cell(cell)
        if payload is _MISS:
            runner = _CELL_RUNNERS.get(cell.section)
            if runner is None:
                raise KeyError(f"unknown cell section {cell.section!r}")
            payload = runner(cell)
            if not self_caching:
                cache.store_cell(cell, payload)
        status = "ok"
    except Exception as exc:
        status, payload = "error", f"{type(exc).__name__}: {exc}"
    finally:
        # The disk cache serves the next cell, so a worker holds only
        # the traces of the cell it is running.
        clear_trace_cache()
        profiling.swap(previous)
    return status, payload, time.perf_counter() - started, profiler.snapshot()


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

#: extra attempts after the first failure/timeout of a cell.
_RETRIES = 1


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
                if status == "ok" or attempts > _RETRIES:
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
        if status != "ok" and attempt <= _RETRIES:
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
    "CellOutcome",
    "EngineOptions",
    "EngineReport",
    "TaskCell",
    "TraceCache",
    "code_digest",
    "default_cache_dir",
    "last_engine_report",
    "run_cells",
]
