"""Built-in phase profiler for the trace pipeline.

The end-to-end cost of every experiment decomposes into a handful of
phases — ``compile`` (MiniC → assembled program), ``emulate`` (the
functional emulator filling trace columns), ``timing`` (the
out-of-order model), ``traffic`` (the Table 3/4 traffic model) and
``render`` (report text generation).  Each hot loop notes its own
wall time and instruction count into the *active* profiler, if one is
installed; with no profiler active the per-call overhead is one
module-global ``None`` check per phase invocation (not per
instruction), so production runs pay nothing measurable.

Snapshots are plain dicts, so they pickle across the parallel
engine's process boundary: each worker profiles its own cell and
ships the snapshot back with the payload (see
:class:`repro.harness.parallel.CellOutcome`), and the caller merges
them into one suite-wide breakdown.  ``repro report --profile`` and
``repro profile <benchmark>`` render that breakdown; it never enters
the report document itself, which stays byte-comparable across runs.

Besides timed phases the profiler carries named *counters* — cell
and trace cache hit/miss tallies from :mod:`repro.harness.parallel` —
so a ``--profile`` run explains *why* a warm report was fast, not
just that it was.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple, TypedDict

#: Canonical rendering order; unknown phases sort after these.
PHASE_ORDER = (
    "compile", "emulate", "timing", "traffic", "analysis", "render"
)


class Snapshot(TypedDict):
    """Picklable form of a profiler (see :meth:`PhaseProfiler.snapshot`)."""

    #: phase -> (calls, seconds, items)
    phases: Dict[str, Tuple[int, float, int]]
    #: counter name -> count
    counters: Dict[str, int]


@dataclass
class PhaseStat:
    """Accumulated cost of one phase."""

    calls: int = 0
    seconds: float = 0.0
    #: instructions (or records) processed — 0 when not meaningful.
    items: int = 0

    @property
    def mips(self) -> float:
        """Millions of items per second (0.0 when unmeasured)."""
        if self.seconds <= 0.0 or self.items == 0:
            return 0.0
        return self.items / self.seconds / 1e6


class PhaseProfiler:
    """Accumulates :class:`PhaseStat` per phase; mergeable, renderable."""

    def __init__(self) -> None:
        self.phases: Dict[str, PhaseStat] = {}
        self.counters: Dict[str, int] = {}

    def note(self, phase: str, seconds: float, items: int = 0) -> None:
        stat = self.phases.get(phase)
        if stat is None:
            stat = self.phases[phase] = PhaseStat()
        stat.calls += 1
        stat.seconds += seconds
        stat.items += items

    def count(self, name: str, n: int = 1) -> None:
        """Bump a named event counter (cache hits, batch configs...)."""
        if n:
            self.counters[name] = self.counters.get(name, 0) + n

    def merge(self, snapshot: Optional[Snapshot]) -> None:
        """Fold a picklable snapshot (e.g. from a worker) into this one."""
        if not snapshot:
            return
        for name, n in snapshot["counters"].items():
            self.count(name, n)
        for phase, (calls, seconds, items) in snapshot["phases"].items():
            stat = self.phases.get(phase)
            if stat is None:
                stat = self.phases[phase] = PhaseStat()
            stat.calls += calls
            stat.seconds += seconds
            stat.items += items

    def snapshot(self) -> Snapshot:
        return {
            "phases": {
                phase: (stat.calls, stat.seconds, stat.items)
                for phase, stat in self.phases.items()
            },
            "counters": dict(self.counters),
        }

    @property
    def total_seconds(self) -> float:
        return sum(stat.seconds for stat in self.phases.values())

    def render(self, title: str = "Phase profile") -> str:
        """Human-readable per-phase wall-time / throughput table."""
        total = self.total_seconds
        lines = [
            f"{title} (phase total {total:.3f}s)",
            f"{'phase':10s} {'calls':>6s} {'seconds':>9s} {'share':>7s} "
            f"{'Minstr':>9s} {'MIPS':>8s}",
        ]
        ordered = [p for p in PHASE_ORDER if p in self.phases]
        ordered += sorted(p for p in self.phases if p not in PHASE_ORDER)
        for phase in ordered:
            stat = self.phases[phase]
            share = 100.0 * stat.seconds / total if total > 0 else 0.0
            mips = f"{stat.mips:8.2f}" if stat.items else f"{'-':>8s}"
            lines.append(
                f"{phase:10s} {stat.calls:6d} {stat.seconds:9.3f} "
                f"{share:6.1f}% {stat.items / 1e6:9.2f} {mips}"
            )
        if self.counters:
            lines.append("cache counters:")
            # Width fits the longest name (the superblock counters
            # outgrew the old fixed column).
            width = max(24, max(len(name) for name in self.counters))
            for name in sorted(self.counters):
                lines.append(
                    f"  {name:{width}s} {self.counters[name]:10d}"
                )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The active profiler (per process)
# ---------------------------------------------------------------------------

_ACTIVE: Optional[PhaseProfiler] = None


def active() -> Optional[PhaseProfiler]:
    """The currently installed profiler, or None (profiling off)."""
    return _ACTIVE


def swap(profiler: Optional[PhaseProfiler]) -> Optional[PhaseProfiler]:
    """Install ``profiler`` (or None) and return the previous one.

    Save/restore semantics rather than a flat on/off switch: the
    parallel engine's inline path runs cells in the caller's process,
    where a cell-scoped profiler must nest inside (and not clobber)
    any caller-scoped one.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = profiler
    return previous


def note(phase: str, seconds: float, items: int = 0) -> None:
    """Accumulate into the active profiler; no-op when none installed."""
    if _ACTIVE is not None:
        _ACTIVE.note(phase, seconds, items)


def note_counter(name: str, n: int = 1) -> None:
    """Bump a named counter on the active profiler; no-op when none.

    Used by layers that count events rather than time phases — e.g.
    the chaos fault injector tallying ``chaos_*_faults`` so a chaos
    run's profile shows exactly which faults actually fired.
    """
    if _ACTIVE is not None:
        _ACTIVE.count(name, n)


@contextmanager
def profiled(
    profiler: Optional[PhaseProfiler] = None,
) -> Iterator[PhaseProfiler]:
    """Context manager: install a profiler for the dynamic extent."""
    if profiler is None:
        profiler = PhaseProfiler()
    previous = swap(profiler)
    try:
        yield profiler
    finally:
        swap(previous)


__all__ = [
    "PHASE_ORDER",
    "PhaseProfiler",
    "PhaseStat",
    "Snapshot",
    "active",
    "note",
    "note_counter",
    "profiled",
    "swap",
]
