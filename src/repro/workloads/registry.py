"""Workload registry: the SPECint2000-inspired suite (paper Table 1).

Each workload is a MiniC program modeled on the algorithmic core of one
SPEC CPU2000 integer benchmark, with one or more input sets mirroring
the reference/training inputs the paper lists in Table 1.  The
substitution rationale is recorded in DESIGN.md: the SVF's behaviour
depends on *stack reference structure* (call depth, `$sp`-relative
slot traffic, address-taken escapes), which compiled MiniC reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import profiling
from repro.emulator.machine import Machine
from repro.errors import UsageError
from repro.lang.codegen import CodegenOptions, compile_program
from repro.trace.columnar import ColumnarTrace
from repro.workloads import (
    bzip2,
    crafty,
    eon,
    gap,
    gcc,
    gzip,
    mcf,
    parser,
    perlbmk,
    twolf,
    vortex,
    vpr,
    x86mix,
)


@dataclass(frozen=True)
class Workload:
    """One (benchmark, input) pair."""

    name: str
    input_name: str
    description: str
    make_source: Callable[..., str]
    params: dict = field(default_factory=dict)

    @property
    def full_name(self) -> str:
        """Table-3 style row label, e.g. ``bzip2.graphic``."""
        short = self.name.split(".", 1)[1]
        return f"{short}.{self.input_name}"

    def source(self, **overrides) -> str:
        merged = dict(self.params)
        merged.update(overrides)
        return self.make_source(**merged)

    def program(self, options: Optional[CodegenOptions] = None, **overrides):
        profiler = profiling.active()
        if profiler is None:
            return compile_program(self.source(**overrides), options)
        started = perf_counter()
        program = compile_program(self.source(**overrides), options)
        profiler.note("compile", perf_counter() - started, len(program))
        return program

    def run(
        self,
        max_instructions: Optional[int] = None,
        trace_sink=None,
        options: Optional[CodegenOptions] = None,
        **overrides,
    ) -> Machine:
        """Compile and execute; returns the finished machine.

        ``trace_sink`` is a :class:`ColumnarTrace` that receives the
        run's columns, or ``None`` to trace nothing (see
        :meth:`repro.emulator.Machine.run`).
        """
        machine = Machine(self.program(options, **overrides))
        machine.run(max_instructions=max_instructions, trace_sink=trace_sink)
        return machine

    def trace(
        self,
        max_instructions: Optional[int] = None,
        options: Optional[CodegenOptions] = None,
        **overrides,
    ) -> ColumnarTrace:
        """Compile, execute, and return the full trace (columnar)."""
        trace = ColumnarTrace()
        self.run(
            max_instructions=max_instructions,
            trace_sink=trace,
            options=options,
            **overrides,
        )
        return trace


_MODULES = {
    "256.bzip2": (bzip2, "block compression (RLE + MTF + entropy)"),
    "186.crafty": (crafty, "alpha-beta game-tree search"),
    "252.eon": (eon, "probabilistic ray tracer"),
    "254.gap": (gap, "permutation group arithmetic"),
    "176.gcc": (gcc, "expression-tree compiler passes"),
    "164.gzip": (gzip, "LZ77 compression with hash chains"),
    "181.mcf": (mcf, "min-cost network flow relaxation"),
    "197.parser": (parser, "recursive-descent link parser"),
    "300.twolf": (twolf, "simulated-annealing placement"),
    "255.vortex": (vortex, "object database transactions"),
    "253.perlbmk": (perlbmk, "bytecode-VM interpreter"),
    "175.vpr": (vpr, "grid routing wavefront expansion"),
    # Extension (not part of the paper's Table 1): the future-work
    # partial-word reference mix of Section 7.
    "ext.x86mix": (x86mix, "x86-style partial-word record processing"),
}

#: Display order used by the paper's tables.
BENCHMARK_ORDER = [
    "256.bzip2",
    "186.crafty",
    "252.eon",
    "254.gap",
    "176.gcc",
    "164.gzip",
    "181.mcf",
    "197.parser",
    "300.twolf",
    "255.vortex",
    "253.perlbmk",
    "175.vpr",
]

#: Every registry entry, extensions included — the 13 programs the
#: stack-discipline linter (``repro lint --all``) must keep clean.
ALL_BENCHMARKS = BENCHMARK_ORDER + ["ext.x86mix"]

#: Table 1 of the paper: benchmark -> input description.
TABLE1_INPUTS = {
    "256.bzip2": "ref: graphic & program",
    "186.crafty": "ref: crafty.in",
    "252.eon": "cook & kajiya algorithms",
    "254.gap": "ref.in",
    "176.gcc": "train: cp-decl.i & ref: integrate.in",
    "164.gzip": "ref: graphic & program & log",
    "181.mcf": "ref: inp.in",
    "197.parser": "ref.in",
    "300.twolf": "ref",
    "255.vortex": "ref",
    "253.perlbmk": "train: scrabbl.in",
    "175.vpr": "ref",
}


def benchmark_names() -> List[str]:
    """All benchmark names in display order."""
    return list(BENCHMARK_ORDER)


def input_names(benchmark: str) -> List[str]:
    """The input sets defined for one benchmark."""
    module, _ = _resolve(benchmark)
    return list(module.INPUTS)


def workload(benchmark: str, input_name: Optional[str] = None) -> Workload:
    """Look up one workload; default to its first input set."""
    module, description = _resolve(benchmark)
    if input_name is None:
        input_name = next(iter(module.INPUTS))
    if input_name not in module.INPUTS:
        raise KeyError(
            f"unknown input {input_name!r} for {benchmark!r} "
            f"(have {sorted(module.INPUTS)})"
        )
    full = benchmark if "." in benchmark else _expand(benchmark)
    return Workload(
        name=full,
        input_name=input_name,
        description=description,
        make_source=module.make_source,
        params=dict(module.INPUTS[input_name]),
    )


def all_workloads() -> List[Workload]:
    """One workload per benchmark (first input set)."""
    return [workload(name) for name in BENCHMARK_ORDER]


def all_inputs() -> List[Workload]:
    """Every (benchmark, input) pair — the rows of the paper's Table 3."""
    out = []
    for name in BENCHMARK_ORDER:
        for input_name in input_names(name):
            out.append(workload(name, input_name))
    return out


def canonical_benchmark(name: str) -> str:
    """Resolve ``"gzip"``/``"164.gzip"`` to the registry key, or KeyError."""
    if name in _MODULES:
        return name
    return _expand(name)


def validate_benchmarks(names: Sequence[str]) -> List[str]:
    """Canonicalize a benchmark subset, failing fast on unknown names.

    Returns the resolved full names in request order (duplicates
    dropped).  Every unknown name is collected before raising, so one
    :class:`UsageError` lists them all — the sweep never starts with a
    subset that would explode mid-run.
    """
    resolved: List[str] = []
    unknown: List[str] = []
    for name in names:
        try:
            full = canonical_benchmark(name)
        except KeyError:
            unknown.append(name)
            continue
        if full not in resolved:
            resolved.append(full)
    if unknown:
        shorts = ", ".join(n.split(".", 1)[1] for n in _MODULES)
        noun = "benchmark" if len(unknown) == 1 else "benchmarks"
        raise UsageError(
            f"unknown {noun}: {', '.join(unknown)} (choose from {shorts})"
        )
    return resolved


def _expand(short: str) -> str:
    for name in _MODULES:
        if name.split(".", 1)[1] == short:
            return name
    raise KeyError(f"unknown benchmark {short!r}")


def _resolve(benchmark: str) -> Tuple[object, str]:
    name = benchmark if "." in benchmark else _expand(benchmark)
    if name not in _MODULES:
        raise KeyError(f"unknown benchmark {benchmark!r}")
    return _MODULES[name]


# ---------------------------------------------------------------------------
# Trace cache: experiments re-simulate the same workloads under many
# machine configurations; the functional trace only needs producing once.
# A second, on-disk level (the parallel engine installs a TraceCache
# via set_disk_trace_cache for every run) shares traces across worker
# processes and, with a persistent cache directory, across invocations.
# ---------------------------------------------------------------------------

TraceKey = Tuple[str, str, int, Optional[int]]

_TRACE_CACHE: Dict[TraceKey, ColumnarTrace] = {}

#: Optional on-disk cache: any object with
#: load(key) -> Optional[ColumnarTrace] and store(key, trace).  None
#: (outside the engine) means no disk level.
_DISK_CACHE = None


def set_disk_trace_cache(cache) -> None:
    """Install (or with ``None`` remove) the shared on-disk trace cache."""
    global _DISK_CACHE
    _DISK_CACHE = cache


def get_disk_trace_cache():
    """The currently installed on-disk trace cache, if any."""
    return _DISK_CACHE


def cached_trace(
    work: Workload,
    max_instructions: Optional[int],
    options: Optional[CodegenOptions] = None,
) -> ColumnarTrace:
    """Trace for a workload, cached per process (and on disk when enabled).

    The key is (benchmark, input, opt level, window): with the source
    code, everything that determines the record stream.  The disk
    level lives in a directory named by a digest of that code, so an
    edit never reads a trace the old code emitted.
    """
    opt_level = options.opt_level if options is not None else 0
    key: TraceKey = (work.name, work.input_name, opt_level, max_instructions)
    trace = _TRACE_CACHE.get(key)
    if trace is not None:
        return trace
    if _DISK_CACHE is not None:
        trace = _DISK_CACHE.load(key)
    if trace is None:
        trace = work.trace(max_instructions=max_instructions, options=options)
        if _DISK_CACHE is not None:
            _DISK_CACHE.store(key, trace)
    _TRACE_CACHE[key] = trace
    return trace


def clear_trace_cache() -> None:
    """Drop all in-memory cached traces.

    The parallel engine calls this as each cell ends, so a worker
    holds only the traces of the cell it is running; tests call it
    too.
    """
    _TRACE_CACHE.clear()
