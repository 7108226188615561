"""Deterministic fault injection for the parallel engine and cache.

Every number this reproduction reports flows through
:mod:`repro.harness.parallel` and its :class:`TraceCache`; this module
exists to *prove* the degradation contracts those layers claim, in the
spirit of kill-the-primary workloads: a seeded :class:`FaultPlan` can

* kill a worker process mid-cell (``kill`` — real ``SIGKILL``),
* hang or slow a cell (``hang``/``slow`` — an injected sleep),
* fail a cell (``fail`` — an injected exception),
* truncate or bit-flip on-disk cache entries between runs
  (``truncate``/``bitflip`` via :func:`inject_cache_faults`),

while :func:`run_chaos` drives a real report or sweep under the plan
and checks the invariants the docs promise:

1. output is **byte-identical** to a clean run, or every divergence is
   an explicitly annotated gap;
2. the cache is **never poisoned** — a corrupt entry is never served,
   a valid entry is never lost to a transient error, and a warm re-run
   after the chaos run reproduces the clean bytes exactly;
3. **no worker process outlives the run** (no orphans, no zombies);
4. exit codes stay honest (the CLI maps the verdict to 0/1).

Determinism: which cells a rule hits is decided by a seeded digest of
the rule and the *cell identity* — never by scheduling — and each
(rule, cell) pair fires at most ``times`` times, tracked by an on-disk
claim ledger so the bookkeeping survives the worker being SIGKILLed
mid-fault.  The same plan over the same cells injects the same faults
on every run, at every ``--jobs`` value.

This module is a leaf: it must not import :mod:`repro.harness.parallel`
at module level (the engine imports us for the worker-side hook).
"""

from __future__ import annotations

import errno
import hashlib
import os
import signal
import time
from dataclasses import dataclass, field, replace
from fnmatch import fnmatch
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import profiling

#: Fault kinds a rule may carry.  ``kill``/``hang``/``slow``/``fail``
#: fire inside workers via :func:`on_cell_start`; ``truncate``/
#: ``bitflip`` operate on cache files via :func:`inject_cache_faults`.
FAULT_KINDS = ("kill", "hang", "slow", "fail", "truncate", "bitflip")

#: Cache-entry suffixes :func:`inject_cache_faults` may touch.
CACHE_SUFFIXES = (".trace.bin", ".cell.pkl", ".section.pkl")


class ChaosFault(RuntimeError):
    """An injected cell failure (the ``fail`` fault kind)."""


class ChaosKill(RuntimeError):
    """A simulated worker kill (inline runs can't SIGKILL the host)."""


@dataclass(frozen=True)
class FaultRule:
    """One deterministic fault: what, whom, how often.

    ``match`` is an ``fnmatch`` pattern over the stable cell key of
    :func:`cell_key` (section, benchmark, window and params all appear
    in it), so a rule can target one exact cell or a whole family.
    ``probability`` thins the matched set via a seeded digest of the
    cell identity — scheduling never changes the selection.  ``times``
    caps how often the rule fires per matching cell (claimed through
    the plan's ledger, so a retry of a once-killed cell runs clean).
    """

    kind: str
    match: str = "*"
    times: int = 1
    #: sleep length for ``hang``/``slow`` faults, in seconds.
    seconds: float = 0.0
    probability: float = 1.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {FAULT_KINDS}, not {self.kind!r}"
            )
        if self.times < 1:
            raise ValueError(f"times must be >= 1, not {self.times!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], not {self.probability!r}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, picklable set of fault rules.

    ``ledger_dir`` holds the claim tokens that make ``times`` exact
    across worker processes and retries; without one the plan falls
    back to a per-process in-memory ledger (fine for inline runs,
    too weak for a pool — pool runs should always set it).
    """

    seed: int = 0
    rules: Tuple[FaultRule, ...] = ()
    ledger_dir: Optional[str] = None

    def worker_rules(self) -> Tuple[Tuple[int, FaultRule], ...]:
        """(index, rule) pairs that fire inside workers."""
        return tuple(
            (index, rule) for index, rule in enumerate(self.rules)
            if rule.kind in ("kill", "hang", "slow", "fail")
        )

    def cache_rules(self) -> Tuple[Tuple[int, FaultRule], ...]:
        """(index, rule) pairs that corrupt cache entries."""
        return tuple(
            (index, rule) for index, rule in enumerate(self.rules)
            if rule.kind in ("truncate", "bitflip")
        )


def cell_key(cell) -> str:
    """Stable, human-readable identity of one task cell.

    Unlike ``cell.label`` this bakes in the window and every param, so
    two sweep rows of the same workload never share a key.
    """
    window_tag = "full" if cell.window is None else str(cell.window)
    params = ",".join(f"{name}={value}" for name, value in cell.params)
    return f"{cell.section}:{cell.benchmark}:w{window_tag}:{params}"


def _digest_fraction(seed: int, rule_index: int, token: str) -> float:
    """Deterministic uniform [0, 1) draw for (seed, rule, token)."""
    digest = hashlib.sha256(
        f"{seed}:{rule_index}:{token}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


def _selected(plan: FaultPlan, rule_index: int, rule: FaultRule,
              token: str) -> bool:
    if not fnmatch(token, rule.match):
        return False
    if rule.probability >= 1.0:
        return True
    return _digest_fraction(plan.seed, rule_index, token) < rule.probability


# ---------------------------------------------------------------------------
# The claim ledger: (rule, cell) fires at most ``times`` times
# ---------------------------------------------------------------------------

#: in-memory fallback ledger (per process) when the plan has no dir.
_MEMORY_LEDGER: Dict[str, int] = {}


def _claim(plan: FaultPlan, rule_index: int, token: str,
           times: int) -> bool:
    """Atomically claim one firing slot; False once ``times`` used up.

    On-disk tokens are created with ``O_CREAT | O_EXCL`` so two racing
    workers can never double-claim a slot, and a SIGKILLed worker's
    claim survives its death — exactly what makes ``times=1`` mean
    *once*, not once-per-process-lifetime.
    """
    name = hashlib.sha256(
        f"{rule_index}:{token}".encode("utf-8")
    ).hexdigest()[:32]
    if plan.ledger_dir is None:
        used = _MEMORY_LEDGER.get(name, 0)
        if used >= times:
            return False
        _MEMORY_LEDGER[name] = used + 1
        return True
    root = Path(plan.ledger_dir)
    root.mkdir(parents=True, exist_ok=True)
    for slot in range(times):
        try:
            descriptor = os.open(
                str(root / f"{name}.{slot}"),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except FileExistsError:
            continue
        except OSError:
            return False
        os.close(descriptor)
        return True
    return False


# ---------------------------------------------------------------------------
# Worker-side hook
# ---------------------------------------------------------------------------

_PLAN: Optional[FaultPlan] = None
#: inline runs convert ``kill`` into :class:`ChaosKill` — SIGKILLing
#: the caller's own process is not a fault model, it's a crash.
_SIMULATE_KILL: bool = True


def install(plan: Optional[FaultPlan],
            simulate_kill: bool = True) -> Optional[FaultPlan]:
    """Install ``plan`` for this process; returns the previous plan."""
    global _PLAN, _SIMULATE_KILL
    previous = _PLAN
    _PLAN = plan
    _SIMULATE_KILL = simulate_kill
    return previous


def active_plan() -> Optional[FaultPlan]:
    return _PLAN


def on_cell_start(cell) -> None:
    """Engine hook: apply every matching worker fault to this cell.

    Called by ``_execute_cell`` after the cell's profiler is installed
    (so fault counters ship back in the snapshot) and before the cache
    lookup (so a killed cell's retry exercises the full path).
    """
    plan = _PLAN
    if plan is None:
        return
    token = cell_key(cell)
    for rule_index, rule in plan.worker_rules():
        if not _selected(plan, rule_index, rule, token):
            continue
        if not _claim(plan, rule_index, token, rule.times):
            continue
        profiling.note_counter(f"chaos_{rule.kind}_faults")
        if rule.kind in ("hang", "slow"):
            time.sleep(rule.seconds)
        elif rule.kind == "fail":
            raise ChaosFault(
                f"injected failure (rule {rule_index}, seed {plan.seed})"
            )
        elif rule.kind == "kill":
            if _SIMULATE_KILL:
                raise ChaosKill(
                    f"simulated worker kill (rule {rule_index}, "
                    f"seed {plan.seed})"
                )
            os.kill(os.getpid(), signal.SIGKILL)


# ---------------------------------------------------------------------------
# Cache corruption (between runs)
# ---------------------------------------------------------------------------


def cache_entries(cache_dir: str) -> List[Path]:
    """Every cache entry under ``cache_dir``, sorted for determinism."""
    root = Path(cache_dir)
    if not root.exists():
        return []
    return sorted(
        path for path in root.rglob("*")
        if path.is_file() and path.name.endswith(CACHE_SUFFIXES)
    )


def truncate_entry(path: Path) -> bool:
    """Cut an entry in half (a writer that died mid-write)."""
    size = path.stat().st_size
    if size < 2:
        return False
    data = path.read_bytes()
    path.write_bytes(data[: size // 2])
    return True


def bitflip_entry(path: Path, seed: int = 0) -> bool:
    """Flip one seeded bit (silent media/transport corruption)."""
    data = bytearray(path.read_bytes())
    if not data:
        return False
    fraction = _digest_fraction(seed, 0, str(path.name))
    offset = int(fraction * len(data)) % len(data)
    data[offset] ^= 1 << (int(fraction * 8) % 8)
    path.write_bytes(bytes(data))
    return True


def inject_cache_faults(cache_dir: str, plan: FaultPlan) -> List[str]:
    """Apply the plan's ``truncate``/``bitflip`` rules to a cache dir.

    Selection matches each rule's ``fnmatch`` pattern against the
    entry name and thins by the seeded digest; each rule corrupts at
    most ``times`` entries, walking the sorted listing so the damage
    is reproducible.  Returns the corrupted paths.
    """
    corrupted: List[str] = []
    entries = cache_entries(cache_dir)
    for rule_index, rule in plan.cache_rules():
        hit = 0
        for path in entries:
            if hit >= rule.times:
                break
            if not _selected(plan, rule_index, rule, path.name):
                continue
            if rule.kind == "truncate":
                done = truncate_entry(path)
            else:
                done = bitflip_entry(path, seed=plan.seed)
            if done:
                corrupted.append(str(path))
                hit += 1
    return corrupted


# ---------------------------------------------------------------------------
# Invariant checks and the chaos run harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChaosCheck:
    """One verified invariant: name, verdict, human detail."""

    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class ChaosOptions:
    """Frozen knobs for one ``repro chaos`` run.

    The target is the report battery over ``benchmarks`` (default) or
    the sweep suite at ``suite``.  ``kills``/``hangs``/``fails`` pick
    how many distinct cells each fault hits (seeded choice over the
    planned cells); ``corrupt`` picks how many cache entries the
    corruption round truncates/bit-flips.  ``work_dir`` hosts the
    cache directories and the claim ledger (``None`` = a
    ``repro-chaos-*`` temporary directory, removed when the run
    returns).  ``task_timeout`` is the per-attempt cell deadline in
    seconds (> 0).
    """

    benchmarks: Tuple[str, ...] = ("gzip",)
    suite: Optional[str] = None
    jobs: int = 2
    seed: int = 0
    kills: int = 1
    hangs: int = 1
    fails: int = 1
    corrupt: int = 2
    hang_seconds: float = 30.0
    task_timeout: float = 20.0
    timing_window: int = 1_500
    functional_window: int = 1_500
    concurrent: bool = True
    work_dir: Optional[str] = None

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, not {self.jobs!r}")
        if not self.task_timeout > 0:
            raise ValueError(
                f"task_timeout must be > 0, not {self.task_timeout!r}"
            )
        if self.benchmarks is not None and not isinstance(
            self.benchmarks, tuple
        ):
            object.__setattr__(self, "benchmarks", tuple(self.benchmarks))


@dataclass
class ChaosResult:
    """Verdict of one chaos run: per-invariant checks plus provenance."""

    checks: List[ChaosCheck] = field(default_factory=list)
    faults_planned: int = 0
    corrupted_entries: List[str] = field(default_factory=list)
    target: str = "report"
    seed: int = 0
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "chaos",
            "target": self.target,
            "seed": self.seed,
            "ok": self.ok,
            "faults_planned": self.faults_planned,
            "corrupted_entries": len(self.corrupted_entries),
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "checks": [
                {"name": c.name, "ok": c.ok, "detail": c.detail}
                for c in self.checks
            ],
        }

    def render(self) -> str:
        lines = [
            f"Chaos run — target {self.target}, seed {self.seed}: "
            f"{self.faults_planned} worker faults, "
            f"{len(self.corrupted_entries)} corrupted cache entries"
        ]
        for check in self.checks:
            verdict = "PASS" if check.ok else "FAIL"
            detail = f" — {check.detail}" if check.detail else ""
            lines.append(f"  [{verdict}] {check.name}{detail}")
        lines.append(
            "verdict: all invariants hold" if self.ok
            else "verdict: INVARIANT VIOLATED"
        )
        return "\n".join(lines)


def check_output_invariant(
    baseline: str, chaotic: str, label: str
) -> ChaosCheck:
    """Byte-identical, or every divergence explicitly annotated."""
    if chaotic == baseline:
        return ChaosCheck(
            f"{label}-identical-or-annotated", True,
            "byte-identical to the clean run (faults absorbed by retries)",
        )
    if "(degraded:" in chaotic:
        gaps = chaotic.count("(degraded:")
        return ChaosCheck(
            f"{label}-identical-or-annotated", True,
            f"diverged with {gaps} explicit degradation annotation"
            f"{'s' if gaps != 1 else ''}",
        )
    return ChaosCheck(
        f"{label}-identical-or-annotated", False,
        "output diverged from the clean run with no degradation "
        "annotation — a silent wrong answer",
    )


def check_no_orphans(engine_report) -> ChaosCheck:
    """No worker process survives the run (and none was silently lost)."""
    alive = [
        pid for pid in sorted(engine_report.worker_pids)
        if _pid_alive(pid)
    ]
    if alive:
        return ChaosCheck(
            "no-orphan-workers", False,
            f"worker pids still alive after shutdown: {alive}",
        )
    return ChaosCheck(
        "no-orphan-workers", True,
        f"{len(engine_report.worker_pids)} workers spawned, "
        f"{engine_report.recycled} recycled, all reaped",
    )


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError as exc:
        return exc.errno == errno.EPERM
    # Signal 0 succeeded: the pid exists, but a SIGKILLed child that
    # has been reaped cannot reach here; a zombie (dead, unreaped)
    # still counts as a leak.
    return True


def _pick_victims(keys: Sequence[str], seed: int,
                  counts: Dict[str, int]) -> List[FaultRule]:
    """Seeded choice of distinct victim cells for each worker fault.

    Victims are drawn from the sorted key list by the digest, one rule
    per (kind, victim), so the plan is a pure function of (cells,
    seed, counts) and two faults never stack on one cell.
    """
    ordered = sorted(
        sorted(keys),
        key=lambda key: _digest_fraction(seed, 0, key),
    )
    rules: List[FaultRule] = []
    cursor = 0
    for kind in ("kill", "hang", "fail"):
        for _ in range(counts.get(kind, 0)):
            if cursor >= len(ordered):
                break
            rules.append(FaultRule(
                kind=kind,
                match=ordered[cursor],
                times=1,
                seconds=counts.get("hang_seconds", 30.0)
                if kind == "hang" else 0.0,
            ))
            cursor += 1
    return rules


def run_chaos(options: Optional[ChaosOptions] = None,
              progress=None) -> ChaosResult:
    """Drive a real report (or sweep) under a seeded fault plan and
    verify every invariant the harness documents.

    Phases: clean baseline → chaos run (worker kills, hangs, injected
    failures) → repair run (same cache, no faults) → corruption round
    (truncate/bit-flip cache entries, then a warm run) → optional
    concurrent round (two runs racing on one cache dir).  Each phase
    appends :class:`ChaosCheck` verdicts; the CLI maps ``result.ok``
    to the exit code.
    """
    import tempfile

    options = options if options is not None else ChaosOptions()
    if options.work_dir is None:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as work_dir:
            return run_chaos(replace(options, work_dir=work_dir), progress)

    from repro.harness import parallel as engine

    note = progress if progress is not None else (lambda message: None)
    started = time.perf_counter()
    work_root = Path(options.work_dir)
    work_root.mkdir(parents=True, exist_ok=True)

    target = _SweepTarget(options) if options.suite else (
        _ReportTarget(options)
    )
    result = ChaosResult(target=target.name, seed=options.seed)

    note(f"chaos: clean baseline ({target.name})")
    baseline = target.run(str(work_root / "clean"))

    keys = target.planned_keys()
    rules = _pick_victims(keys, options.seed, {
        "kill": options.kills,
        "hang": options.hangs,
        "fail": options.fails,
        "hang_seconds": options.hang_seconds,
    })
    plan = FaultPlan(
        seed=options.seed,
        rules=tuple(rules),
        ledger_dir=str(work_root / "ledger"),
    )
    result.faults_planned = len(rules)

    chaos_cache = str(work_root / "chaos")
    note(
        f"chaos: injecting {len(rules)} worker faults over "
        f"{len(keys)} cells (jobs {options.jobs})"
    )
    chaotic = target.run(chaos_cache, plan=plan)
    result.checks.append(
        check_output_invariant(baseline, chaotic, target.name)
    )
    engine_report = engine.last_engine_report()
    if engine_report is not None:
        result.checks.append(check_no_orphans(engine_report))

    note("chaos: repair run (same cache, no faults)")
    repaired = target.run(chaos_cache)
    result.checks.append(ChaosCheck(
        "cache-not-poisoned-after-faults",
        repaired == baseline,
        "warm re-run over the faulted cache reproduces the clean bytes"
        if repaired == baseline else
        "warm re-run over the faulted cache diverged from the clean run",
    ))

    if options.corrupt > 0:
        corruption_plan = FaultPlan(seed=options.seed, rules=(
            FaultRule("truncate", match="*.trace.bin",
                      times=max(1, options.corrupt // 2)),
            FaultRule("bitflip", match="*.pkl", times=options.corrupt),
        ))
        result.corrupted_entries = inject_cache_faults(
            chaos_cache, corruption_plan
        )
        note(
            f"chaos: corrupted {len(result.corrupted_entries)} cache "
            f"entries, re-running warm"
        )
        profiler = profiling.PhaseProfiler()
        after_corruption = target.run(chaos_cache, profiler=profiler)
        result.checks.append(ChaosCheck(
            "corrupt-entries-never-served",
            after_corruption == baseline,
            "corrupt entries degraded to misses; output matches the "
            "clean run" if after_corruption == baseline else
            "output diverged after cache corruption — a corrupt entry "
            "was served",
        ))
        dropped = profiler.counters.get("cache_corrupt_dropped", 0)
        result.checks.append(ChaosCheck(
            "corrupt-entries-dropped",
            not result.corrupted_entries or dropped > 0,
            f"{dropped} corrupt entries detected and unlinked "
            f"(of {len(result.corrupted_entries)} injected)",
        ))

    if options.concurrent:
        note("chaos: two concurrent runs racing on one cache dir")
        texts = _run_concurrently(target, str(work_root / "shared"))
        result.checks.append(ChaosCheck(
            "concurrent-runs-byte-identical",
            all(text == baseline for text in texts),
            "both racing runs reproduce the clean bytes"
            if all(text == baseline for text in texts) else
            "a run racing on a shared cache dir diverged",
        ))

    result.elapsed_seconds = time.perf_counter() - started
    return result


def _run_concurrently(target, cache_dir: str) -> List[str]:
    import threading

    texts: List[Optional[str]] = [None, None]
    errors: List[BaseException] = []

    def worker(slot: int) -> None:
        try:
            texts[slot] = target.run(cache_dir)
        except BaseException as exc:  # surfaced as a failed check
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(slot,), daemon=True)
        for slot in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return [text for text in texts if text is not None]


class _ReportTarget:
    """Chaos target: the full report battery over a benchmark subset."""

    name = "report"

    def __init__(self, options: ChaosOptions):
        self._options = options

    def planned_keys(self) -> List[str]:
        from repro.harness.experiments import _suite
        from repro.harness.runall import _plan_cells

        options = self._options
        suite = _suite(list(options.benchmarks) or None)
        period = max(options.functional_window // 25, 1_000)
        cells = _plan_cells(
            suite, options.timing_window, options.functional_window,
            period,
        )
        return [cell_key(cell) for cell in cells]

    def run(self, cache_dir: str, plan: Optional[FaultPlan] = None,
            profiler=None) -> str:
        from repro.harness.runall import generate_report

        options = self._options
        return generate_report(
            timing_window=options.timing_window,
            functional_window=options.functional_window,
            benchmarks=list(options.benchmarks) or None,
            jobs=options.jobs,
            cache_dir=cache_dir,
            task_timeout=options.task_timeout,
            fault_plan=plan,
            profiler=profiler,
        )


class _SweepTarget:
    """Chaos target: a declarative sweep suite's run table + summary."""

    name = "sweep"

    def __init__(self, options: ChaosOptions):
        from repro.sweepspec import load_suite

        self._options = options
        self._spec = load_suite(options.suite)

    def planned_keys(self) -> List[str]:
        """Keys of the cells the sweep submits: one group cell per
        (workload, opt, rep)."""
        from repro.harness.sweep import _fuse_cells, plan_cells

        _points, cells = plan_cells(self._spec)
        submit, _group_of = _fuse_cells(self._spec, cells)
        return [cell_key(cell) for cell in submit]

    def run(self, cache_dir: str, plan: Optional[FaultPlan] = None,
            profiler=None) -> str:
        from repro.harness.sweep import SweepOptions, run_sweep

        options = self._options
        result = run_sweep(self._spec, SweepOptions(
            jobs=options.jobs,
            cache_dir=cache_dir,
            task_timeout=options.task_timeout,
            fault_plan=plan,
        ))
        if profiler is not None:
            profiler.count(
                "cache_corrupt_dropped", result.corrupt_dropped
            )
        # The deterministic artifacts are the comparison surface; the
        # summary carries the degradation annotations.
        return result.run_table_json() + "\n" + result.render_summary()


__all__ = [
    "CACHE_SUFFIXES",
    "ChaosCheck",
    "ChaosFault",
    "ChaosKill",
    "ChaosOptions",
    "ChaosResult",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultRule",
    "bitflip_entry",
    "cache_entries",
    "cell_key",
    "check_no_orphans",
    "check_output_invariant",
    "inject_cache_faults",
    "install",
    "on_cell_start",
    "run_chaos",
    "truncate_entry",
]
