"""Experiment drivers — one per table/figure of the paper.

Every driver runs the full workload suite (or a named subset) over
fixed instruction windows and returns structured results; the
``render_*`` helpers in each result class produce the paper-style
table/series as text.  DESIGN.md section 4 maps each driver to its
paper artifact; EXPERIMENTS.md records paper-vs-measured values.

Timing experiments default to modest windows so the whole suite runs
in minutes under Python; pass ``max_instructions`` to scale up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.emulator.memory import STACK_BASE
from repro.harness.report import percent, render_series, render_table
from repro.trace.analysis import (
    AccessDistribution,
    OffsetLocality,
    StackDepthProfile,
    consume_trace,
)
from repro.trace.columnar import ColumnarTrace
from repro.trace.first_touch import FirstTouchProfile
from repro.trace.regions import AccessMethod
from repro.core.traffic import simulate_traffic
from repro.uarch.config import table2_config
from repro.uarch.pipeline import simulate_batch
from repro.uarch.stats import SimStats
from repro.workloads import (
    BENCHMARK_ORDER,
    TABLE1_INPUTS,
    all_inputs,
    cached_trace,
    validate_benchmarks,
    workload,
)

DEFAULT_TIMING_WINDOW = 80_000
DEFAULT_FUNCTIONAL_WINDOW = 150_000

def _suite(benchmarks: Optional[Sequence[str]]) -> List[str]:
    """Resolve a benchmark subset to canonical full names, validated.

    Unknown names raise one :class:`repro.errors.UsageError` listing
    every offender, so a mistyped ``--benchmarks`` fails before any
    simulation starts instead of as a KeyError deep inside a sweep.
    """
    if benchmarks is None:
        return list(BENCHMARK_ORDER)
    return validate_benchmarks(benchmarks)


def _trace_for(benchmark: str, max_instructions: int) -> ColumnarTrace:
    return cached_trace(workload(benchmark), max_instructions)


def _config_error(
    figure: str, config: str, known: Sequence[str]
) -> ValueError:
    return ValueError(
        f"unknown {figure} config {config!r} (have {', '.join(known)})"
    )


def _no_benchmarks_table(headers: Sequence[str], title: str) -> str:
    """Placeholder table for an empty suite (never raise StopIteration)."""
    row = ["(no benchmarks selected)"] + [""] * (len(headers) - 1)
    return render_table(headers, [row], title=title)


def _speedup_row(labels: Sequence[str], pairs: Sequence, shared=False):
    """(machine list, row read-out) of a figure whose columns are
    (baseline, variant) pairs: the list is every pair in turn, or, when
    the columns share one baseline, that baseline and then each variant.
    """
    if shared:
        configs = [pairs[0][0]] + [variant for _, variant in pairs]
        slots = [(0, 1 + column) for column in range(len(pairs))]
    else:
        configs = [config for pair in pairs for config in pair]
        slots = [(2 * column, 2 * column + 1) for column in range(len(pairs))]

    def row(stats) -> Dict[str, float]:
        return {
            label: stats[variant].speedup_over(stats[base])
            for label, (base, variant) in zip(labels, slots)
        }

    return configs, row


def _batch_rows(benchmark: str, max_instructions: int, plans) -> list:
    """One benchmark's row of each (machine list, read-out) plan, from
    one :func:`simulate_batch` call over all the plans' machines."""
    stats = simulate_batch(
        _trace_for(benchmark, max_instructions),
        [config for configs, _ in plans for config in configs],
    )
    rows = []
    for configs, row in plans:
        rows.append(row(stats[:len(configs)]))
        stats = stats[len(configs):]
    return rows


def _rows(plan, benchmarks: Optional[Sequence[str]], max_instructions: int):
    """benchmark -> row of one timing figure, one batch per benchmark."""
    return {
        name: _batch_rows(name, max_instructions, [plan])[0]
        for name in _suite(benchmarks)
    }


# ---------------------------------------------------------------------------
# Table 1 / Table 2 — inventories
# ---------------------------------------------------------------------------


def table1_workloads() -> str:
    """Render the benchmark/input inventory (paper Table 1)."""
    rows = [
        (name, TABLE1_INPUTS[name], workload(name).description)
        for name in BENCHMARK_ORDER
    ]
    return render_table(
        ["Benchmark", "Input", "Modeled kernel"], rows,
        title="Table 1: SPEC CPU2000 integer benchmark",
    )


def table2_models() -> str:
    """Render the machine models (paper Table 2)."""
    configs = [table2_config(w) for w in (4, 8, 16)]
    rows = [
        ("Decode width", *[c.decode_width for c in configs]),
        ("Issue width", *[c.issue_width for c in configs]),
        ("Commit width", *[c.commit_width for c in configs]),
        ("IFQ size", *[c.ifq_size for c in configs]),
        ("RUU size", *[c.ruu_size for c in configs]),
        ("LSQ size", *[c.lsq_size for c in configs]),
        ("DL1 cache", *[f"{c.dl1.assoc}-way {c.dl1.size // 1024}KB" for c in configs]),
        ("DL1 hit", *[f"{c.dl1.latency} clks" for c in configs]),
        ("Unified L2", *[f"{c.l2.assoc}-way {c.l2.size // 1024}KB" for c in configs]),
        ("L2 hit", *[f"{c.l2.latency} clks" for c in configs]),
        ("Mem latency", *[f"{c.memory_latency} clks" for c in configs]),
        ("Store forwarding", *[f"{c.store_forward_latency} clks" for c in configs]),
        ("Int ALU / Mult", *[f"{c.int_alus}/{c.int_mults}" for c in configs]),
    ]
    return render_table(
        ["Component", "4-wide", "8-wide", "16-wide"], rows,
        title="Table 2: Processor Models",
    )


# ---------------------------------------------------------------------------
# Figures 1-3 — stack-reference characterization
# ---------------------------------------------------------------------------


@dataclass
class CharacterizationResult:
    """Figures 1-3 for the whole suite."""

    distributions: Dict[str, AccessDistribution] = field(default_factory=dict)
    depth_profiles: Dict[str, StackDepthProfile] = field(default_factory=dict)
    localities: Dict[str, OffsetLocality] = field(default_factory=dict)
    first_touch: Dict[str, FirstTouchProfile] = field(default_factory=dict)

    def render_fig1(self) -> str:
        rows = []
        for name, dist in self.distributions.items():
            rows.append(
                (
                    name,
                    f"{dist.memory_fraction:.2f}",
                    f"{dist.fraction(AccessMethod.STACK_SP):.2f}",
                    f"{dist.fraction(AccessMethod.STACK_FP):.2f}",
                    f"{dist.fraction(AccessMethod.STACK_GPR):.2f}",
                    f"{dist.fraction(AccessMethod.GLOBAL):.2f}",
                    f"{dist.fraction(AccessMethod.HEAP):.2f}",
                )
            )
        return render_table(
            ["Benchmark", "mem/instr", "stack-$sp", "stack-$fp",
             "stack-$gpr", "global", "heap"],
            rows,
            title="Figure 1: Run-time Memory Access Distribution",
        )

    def render_fig2(self, points: int = 60) -> str:
        lines = ["Figure 2: Stack Depth Variation (64-bit units)"]
        for name, profile in self.depth_profiles.items():
            series = [float(v) for v in profile.depth_series(points)]
            lines.append(render_series(f"{name:14s}", series))
        return "\n".join(lines)

    def render_fig3(self) -> str:
        rows = []
        for name, locality in self.localities.items():
            rows.append(
                (
                    name,
                    f"{locality.average_offset:.1f}",
                    f"{locality.fraction_within(300):.3f}",
                    f"{locality.fraction_within(8192):.3f}",
                    locality.beyond_tos,
                )
            )
        return render_table(
            ["Benchmark", "avg offset (B)", "<=300B", "<=8KB", "beyond TOS"],
            rows,
            title="Figure 3: Offset Locality within a Function",
        )

    def render_first_touch(self) -> str:
        """Section 7, contribution 1: first stack touches are stores."""
        rows = []
        for name, profile in self.first_touch.items():
            rows.append(
                (
                    name,
                    f"{profile.stack_first_store_fraction:.2f}",
                    f"{profile.other_first_store_fraction:.2f}",
                    profile.stack_first_stores + profile.stack_first_loads,
                )
            )
        return render_table(
            ["Benchmark", "stack 1st-store frac", "other 1st-store frac",
             "stack allocations touched"],
            rows,
            title="First-touch analysis (why per-word valid bits work)",
        )


def characterize(
    benchmarks: Optional[Sequence[str]] = None,
    max_instructions: int = DEFAULT_FUNCTIONAL_WINDOW,
) -> CharacterizationResult:
    """Run the Figure 1-3 analyses over the suite (one pass each)."""
    result = CharacterizationResult()
    for name in _suite(benchmarks):
        distribution = AccessDistribution()
        depth = StackDepthProfile(stack_base=STACK_BASE)
        locality = OffsetLocality()
        first_touch = FirstTouchProfile()
        consume_trace(
            _trace_for(name, max_instructions),
            (distribution, depth, locality, first_touch),
        )
        result.distributions[name] = distribution
        result.depth_profiles[name] = depth
        result.localities[name] = locality
        result.first_touch[name] = first_touch
    return result


# ---------------------------------------------------------------------------
# Figure 5 — ideal morphing limit study
# ---------------------------------------------------------------------------


FIG5_CONFIGS = ("4-wide", "8-wide", "16-wide", "16-wide gshare")


def fig5_machine_pair(config: str):
    """(baseline, variant) machine configs of one Figure 5 column."""
    if config == "16-wide gshare":
        base = table2_config(16, branch_predictor="gshare")
    elif config in ("4-wide", "8-wide", "16-wide"):
        base = table2_config(int(config.split("-", 1)[0]))
    else:
        raise _config_error("Figure 5", config, FIG5_CONFIGS)
    return base, base.with_svf(mode="ideal")


class _ColumnAverages:
    """``averages()`` of the speedup figures: the mean of each column
    of ``speedups`` (benchmark -> column -> speedup) over benchmarks."""

    speedups: Dict[str, Dict[str, float]]

    def averages(self) -> Dict[str, float]:
        columns: Dict[str, List[float]] = {}
        for per_bench in self.speedups.values():
            for column, value in per_bench.items():
                columns.setdefault(column, []).append(value)
        return {c: sum(v) / len(v) for c, v in columns.items()}


@dataclass
class Fig5Result(_ColumnAverages):
    """Speedups of an infinite, fully-ported SVF (paper Figure 5)."""

    #: benchmark -> {"4-wide": speedup, ..., "16-wide gshare": speedup}
    speedups: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def render(self) -> str:
        title = (
            "Figure 5: Speedup of Morphing All Stack Accesses "
            "(infinite SVF)"
        )
        if not self.speedups:
            return _no_benchmarks_table(["Benchmark"], title)
        columns = list(next(iter(self.speedups.values())).keys())
        rows = [
            (name, *[percent(per[c]) for c in columns])
            for name, per in self.speedups.items()
        ]
        averages = self.averages()
        rows.append(("average", *[percent(averages[c]) for c in columns]))
        return render_table(["Benchmark", *columns], rows, title=title)


def _fig5_row(widths: Sequence[int] = (4, 8, 16), include_gshare: bool = True):
    """Figure 5's machine list and the read-out of one row from its stats."""
    labels = [f"{width}-wide" for width in widths]
    if include_gshare:
        labels.append("16-wide gshare")
    return _speedup_row(labels, [fig5_machine_pair(label) for label in labels])


def fig5_ideal_morphing(
    benchmarks: Optional[Sequence[str]] = None,
    max_instructions: int = DEFAULT_TIMING_WINDOW,
    widths: Sequence[int] = (4, 8, 16),
    include_gshare: bool = True,
) -> Fig5Result:
    """Figure 5: infinite SVF on 4/8/16-wide, plus 16-wide gshare.

    All of one benchmark's (baseline, ideal) pairs go through a single
    :func:`simulate_batch` call, which shares one column precompute.
    """
    return Fig5Result(speedups=_rows(
        _fig5_row(widths, include_gshare), benchmarks, max_instructions
    ))


# ---------------------------------------------------------------------------
# Figure 6 — progressive performance analysis
# ---------------------------------------------------------------------------

FIG6_STEPS = ("L1_2x", "no_addr_cal_op", "svf_1p", "svf_2p", "svf_16p")


def _dl1_doubled(base):
    """The Figure 6 "L1_2x" machine: same DL1, twice the capacity."""
    return base.with_(
        dl1=base.dl1.__class__(
            size=base.dl1.size * 2,
            assoc=base.dl1.assoc,
            line_size=base.dl1.line_size,
            latency=base.dl1.latency,
        )
    )


def fig6_machine_pair(config: str):
    """(baseline, variant) machine configs of one Figure 6 column."""
    base = table2_config(16)
    if config == "L1_2x":
        variant = _dl1_doubled(base)
    elif config == "no_addr_cal_op":
        variant = base.with_(no_addr_calc=True)
    elif config in ("svf_1p", "svf_2p", "svf_16p"):
        variant = base.with_svf(mode="svf", ports=int(config[4:-1]))
    else:
        raise _config_error("Figure 6", config, FIG6_STEPS)
    return base, variant


@dataclass
class Fig6Result(_ColumnAverages):
    """Progressive relaxations on the 16-wide machine (paper Figure 6)."""

    speedups: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def render(self) -> str:
        title = "Figure 6: Progressive Performance Analysis (16-wide)"
        if not self.speedups:
            return _no_benchmarks_table(["Benchmark", *FIG6_STEPS], title)
        rows = [
            (name, *[percent(per[c]) for c in FIG6_STEPS])
            for name, per in self.speedups.items()
        ]
        averages = self.averages()
        rows.append(("average", *[percent(averages[c]) for c in FIG6_STEPS]))
        return render_table(["Benchmark", *FIG6_STEPS], rows, title=title)


def _fig6_row():
    """Figure 6's machine list and the read-out of one row from its stats."""
    pairs = [fig6_machine_pair(step) for step in FIG6_STEPS]
    return _speedup_row(FIG6_STEPS, pairs, shared=True)


def fig6_progressive(
    benchmarks: Optional[Sequence[str]] = None,
    max_instructions: int = DEFAULT_TIMING_WINDOW,
) -> Fig6Result:
    """Figure 6: 2x DL1, removed address calc, then SVF with 1/2/16 ports.

    The shared baseline and all five relaxations run as one batched
    call per benchmark.
    """
    return Fig6Result(
        speedups=_rows(_fig6_row(), benchmarks, max_instructions)
    )


# ---------------------------------------------------------------------------
# Figures 7 & 8 — SVF vs stack cache
# ---------------------------------------------------------------------------

FIG7_CONFIGS = ("(4+0)", "(2+2)$", "(2+2)svf", "(2+2)svf_nosq")


def _fig7_four_port():
    """The Figure 7 "(4+0)" machine: 4 DL1 ports, +1 cycle latency."""
    four_port = table2_config(16, dl1_ports=4)
    return four_port.with_(
        dl1=four_port.dl1.__class__(
            size=four_port.dl1.size,
            assoc=four_port.dl1.assoc,
            line_size=four_port.dl1.line_size,
            latency=four_port.dl1.latency + 1,
        )
    )


def fig7_machine_pair(config: str, capacity_bytes: int = 8192):
    """(baseline, variant) machine configs of one Figure 7 column."""
    base = table2_config(16, dl1_ports=2)
    if config == "(4+0)":
        variant = _fig7_four_port()
    elif config == "(2+2)$":
        variant = base.with_svf(
            mode="stack_cache", ports=2, capacity_bytes=capacity_bytes
        )
    elif config == "(2+2)svf":
        variant = base.with_svf(
            mode="svf", ports=2, capacity_bytes=capacity_bytes
        )
    elif config == "(2+2)svf_nosq":
        variant = base.with_svf(
            mode="svf", ports=2, capacity_bytes=capacity_bytes,
            no_squash=True,
        )
    else:
        raise _config_error("Figure 7", config, FIG7_CONFIGS)
    return base, variant


@dataclass
class Fig7Result(_ColumnAverages):
    """SVF vs stack cache vs widened baseline (paper Figure 7)."""

    #: benchmark -> config label -> speedup over the (2+0) baseline
    speedups: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: benchmark -> SimStats of the (2+2) SVF run (for Figure 8)
    svf_stats: Dict[str, SimStats] = field(default_factory=dict)

    def render(self) -> str:
        title = (
            "Figure 7: SVF vs Stack Cache vs Baseline "
            "(speedup over (2+0))"
        )
        if not self.speedups:
            return _no_benchmarks_table(["Benchmark", *FIG7_CONFIGS], title)
        rows = [
            (name, *[percent(per[c]) for c in FIG7_CONFIGS])
            for name, per in self.speedups.items()
        ]
        averages = self.averages()
        rows.append(
            ("average", *[percent(averages[c]) for c in FIG7_CONFIGS])
        )
        return render_table(["Benchmark", *FIG7_CONFIGS], rows, title=title)

    def render_fig8(self) -> str:
        title = "Figure 8: Breakdown of SVF Reference Types"
        if not self.svf_stats:
            return _no_benchmarks_table(
                ["Benchmark", "fast loads", "fast stores", "re-routed",
                 "squashes"],
                title,
            )
        rows = []
        for name, stats in self.svf_stats.items():
            total = (
                stats.svf_fast_loads
                + stats.svf_fast_stores
                + stats.svf_rerouted
            ) or 1
            rows.append(
                (
                    name,
                    f"{stats.svf_fast_loads / total:.2f}",
                    f"{stats.svf_fast_stores / total:.2f}",
                    f"{stats.svf_rerouted / total:.2f}",
                    stats.svf_squashes,
                )
            )
        return render_table(
            ["Benchmark", "fast loads", "fast stores", "re-routed",
             "squashes"],
            rows,
            title=title,
        )


def _fig7_row(capacity_bytes: int = 8192):
    """Figure 7's machine list and the read-out of one row (its
    speedups plus the (2+2) SVF run's stats for Figure 8)."""
    pairs = [fig7_machine_pair(c, capacity_bytes) for c in FIG7_CONFIGS]
    configs, speedups = _speedup_row(FIG7_CONFIGS, pairs, shared=True)
    svf_slot = 1 + FIG7_CONFIGS.index("(2+2)svf")
    return configs, lambda stats: {
        "speedups": speedups(stats), "svf_stats": stats[svf_slot],
    }


def fig7_svf_vs_stack_cache(
    benchmarks: Optional[Sequence[str]] = None,
    max_instructions: int = DEFAULT_TIMING_WINDOW,
    capacity_bytes: int = 8192,
) -> Fig7Result:
    """Figure 7 (and Figure 8 counters): port-matched comparison.

    (R+S) = R regular DL1 ports plus S SVF/stack-cache ports.  The
    (4+0) configuration pays one extra cycle of DL1 latency for its
    extra ports, as in the paper.
    """
    rows = _rows(_fig7_row(capacity_bytes), benchmarks, max_instructions)
    return Fig7Result(
        speedups={name: row["speedups"] for name, row in rows.items()},
        svf_stats={name: row["svf_stats"] for name, row in rows.items()},
    )


# ---------------------------------------------------------------------------
# Table 3 — memory traffic
# ---------------------------------------------------------------------------


@dataclass
class Table3Result:
    """Quad-word traffic per (benchmark, input) and size (paper Table 3)."""

    sizes: Sequence[int] = (2048, 4096, 8192)
    #: full_name -> {size: TrafficResult}
    traffic: Dict[str, Dict[int, object]] = field(default_factory=dict)

    def render(self) -> str:
        title = (
            "Table 3: Memory Traffic for Stack Cache and SVF (quad-words)"
        )
        headers = ["Benchmark"]
        for size in self.sizes:
            kb = size // 1024
            headers += [
                f"{kb}K $in", f"{kb}K SVFin", f"{kb}K $out", f"{kb}K SVFout",
            ]
        if not self.traffic:
            return _no_benchmarks_table(headers, title)
        rows = []
        for name, per_size in self.traffic.items():
            row = [name]
            for size in self.sizes:
                r = per_size[size]
                row += [
                    r.stack_cache_qw_in,
                    r.svf_qw_in,
                    r.stack_cache_qw_out,
                    r.svf_qw_out,
                ]
            rows.append(row)
        return render_table(headers, rows, title=title)


def table3_memory_traffic(
    max_instructions: int = DEFAULT_FUNCTIONAL_WINDOW,
    sizes: Sequence[int] = (2048, 4096, 8192),
    inputs: Optional[Iterable] = None,
) -> Table3Result:
    """Table 3: traffic of both schemes at 2/4/8 KB over every input."""
    result = Table3Result(sizes=tuple(sizes))
    for work in inputs if inputs is not None else all_inputs():
        trace = cached_trace(work, max_instructions)
        result.traffic[work.full_name] = {
            size: simulate_traffic(trace, capacity_bytes=size)
            for size in sizes
        }
    return result


# ---------------------------------------------------------------------------
# Table 4 — context-switch traffic
# ---------------------------------------------------------------------------


@dataclass
class Table4Result:
    """Average writeback bytes per context switch (paper Table 4)."""

    period: int = 0
    #: benchmark -> (stack cache avg bytes, SVF avg bytes)
    rows: Dict[str, tuple] = field(default_factory=dict)

    def render(self) -> str:
        title = (
            "Table 4: Memory Traffic on Context Switches "
            f"(bytes/switch, period {self.period})"
        )
        headers = ["Benchmark", "Stack Cache", "Stack Value File"]
        if not self.rows:
            return _no_benchmarks_table(headers, title)
        rows = [
            (name, f"{cache_bytes:.0f}", f"{svf_bytes:.0f}")
            for name, (cache_bytes, svf_bytes) in self.rows.items()
        ]
        return render_table(headers, rows, title=title)


def table4_context_switch(
    benchmarks: Optional[Sequence[str]] = None,
    max_instructions: int = DEFAULT_FUNCTIONAL_WINDOW,
    period: int = 25_000,
    capacity_bytes: int = 8192,
) -> Table4Result:
    """Table 4: periodic flush cost of both schemes.

    The paper flushes every 400 000 instructions of a 1-billion run;
    the period is scaled to our window length (same switches-per-
    window ratio).
    """
    result = Table4Result(period=period)
    for name in _suite(benchmarks):
        trace = _trace_for(name, max_instructions)
        traffic = simulate_traffic(
            trace,
            capacity_bytes=capacity_bytes,
            context_switch_period=period,
        )
        result.rows[name] = (
            traffic.stack_cache_switch_bytes_avg,
            traffic.svf_switch_bytes_avg,
        )
    return result


# ---------------------------------------------------------------------------
# Figure 9 — SVF speedups on 1- and 2-ported designs
# ---------------------------------------------------------------------------

FIG9_CONFIGS = ("(1+1)", "(1+2)", "(2+1)", "(2+2)")


def fig9_machine_pair(config: str, capacity_bytes: int = 8192):
    """(baseline, variant) machine configs of one Figure 9 column."""
    if config not in FIG9_CONFIGS:
        raise _config_error("Figure 9", config, FIG9_CONFIGS)
    regular_ports, svf_ports = int(config[1]), int(config[3])
    base = table2_config(16, dl1_ports=regular_ports)
    variant = base.with_svf(
        mode="svf", ports=svf_ports, capacity_bytes=capacity_bytes
    )
    return base, variant


@dataclass
class Fig9Result(_ColumnAverages):
    """Speedups of adding an SVF to 1-/2-ported baselines (Figure 9)."""

    #: benchmark -> config label -> speedup over the matching baseline
    speedups: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def render(self) -> str:
        title = (
            "Figure 9: SVF Speedup over Same-Ported Baseline "
            "((R+S) vs (R+0))"
        )
        if not self.speedups:
            return _no_benchmarks_table(["Benchmark", *FIG9_CONFIGS], title)
        rows = [
            (name, *[percent(per[c]) for c in FIG9_CONFIGS])
            for name, per in self.speedups.items()
        ]
        averages = self.averages()
        rows.append(
            ("average", *[percent(averages[c]) for c in FIG9_CONFIGS])
        )
        return render_table(["Benchmark", *FIG9_CONFIGS], rows, title=title)


def _fig9_row(capacity_bytes: int = 8192):
    """Figure 9's machine list and the read-out of one row from its stats."""
    pairs = [fig9_machine_pair(c, capacity_bytes) for c in FIG9_CONFIGS]
    return _speedup_row(FIG9_CONFIGS, pairs)


def fig9_svf_speedup(
    benchmarks: Optional[Sequence[str]] = None,
    max_instructions: int = DEFAULT_TIMING_WINDOW,
    capacity_bytes: int = 8192,
) -> Fig9Result:
    """Figure 9: (R+S) SVF speedup relative to the (R+0) baseline.

    Each (R+0) baseline appears in two pairs; the batched call dedups
    it, so one benchmark costs 6 walks instead of 8 separate
    simulations.
    """
    return Fig9Result(speedups=_rows(
        _fig9_row(capacity_bytes), benchmarks, max_instructions
    ))


#: Each timing figure's (machine list, row read-out) at its defaults.
_TIMING_ROWS = dict(
    fig5=_fig5_row, fig6=_fig6_row, fig7=_fig7_row, fig9=_fig9_row
)


def timing_rows(
    benchmark: str, max_instructions: int, figures: Sequence[str]
) -> Dict[str, object]:
    """One benchmark's row of each named timing figure, from one batch:
    a machine several figures share (the 16-wide (2+0) baseline, the
    2-port 8 KB SVF) is walked once.  Each row equals the one the
    figure's own driver returns."""
    plans = [_TIMING_ROWS[figure]() for figure in figures]
    return dict(zip(figures, _batch_rows(benchmark, max_instructions, plans)))
