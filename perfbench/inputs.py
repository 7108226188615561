"""Seeded inputs for the three benchmark workloads.

Every input the program receives is drawn here from the workload seed,
so one seed always yields the same inputs and the program under test
never sees the seed itself.  The module only names benchmarks and
machine fields; building programs and machines is left to the
repetition that runs them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.workloads import BENCHMARK_ORDER, input_names

#: Why each workload exists is recorded in ``BENCHMARK.json``.
WORKLOADS = ("report-cold", "timing-grid", "stack-traffic")

#: Report windows are the ``ReportOptions`` defaults users get.
REPORT_TIMING_WINDOW = 40_000
REPORT_FUNCTIONAL_WINDOW = 80_000
REPORT_JOBS = 2
#: Benchmarks per report; the seed picks which of the 12.
REPORT_SUBSET = 8
#: (benchmark, input) rows the subset covers.  Tables 3 and 4 run every
#: input of a benchmark, so this count sets a report's trace count and
#: memory; the seed only draws among subsets with this many rows.
REPORT_INPUTS = 11

TIMING_WINDOW = 60_000

STACK_WINDOW = 150_000
STACK_OPT_LEVELS = (0, 1)
TRAFFIC_CAPACITY = 8192
SWITCH_PERIOD = 25_000

#: The stack-unit modes a timing grid covers, one drawn machine each.
TIMING_MODES = ("none", "svf", "ideal", "stack_cache")
#: Levels of the other axes the paper varies.  Each drawn grid uses
#: every level list once (a Latin-hypercube design): the seed draws the
#: pairing of levels across machines, while the mix of levels, and so
#: the grid's cost, stays the same from seed to seed.
TIMING_LEVELS = {
    "width": (4, 8, 16, 16),
    "dl1_ports": (1, 2, 2, 4),
    "svf_ports": (1, 2, 2, 4),
    "svf_capacity": (2048, 4096, 8192, 16384),
}
#: The 16-wide Table-2 baseline every grid starts with.
BASELINE_MACHINE: Dict[str, object] = {}

#: LCG seeds stay in the workloads' 31-bit state range.
_PROGRAM_SEED_RANGE = (1, 2**31 - 1)


@dataclass(frozen=True)
class Inputs:
    """Everything one workload run receives, drawn from one seed."""

    workload: str
    seed: int
    #: benchmarks in suite order
    benchmarks: Tuple[str, ...]
    #: per-benchmark LCG seed passed to ``Workload.program(seed=...)``;
    #: empty for report-cold, which runs the registry inputs
    program_seeds: Tuple[int, ...] = ()
    #: ``MachineSpec`` keyword arguments, baseline first
    machines: Tuple[Dict[str, object], ...] = ()


def draw(workload: str, seed: int) -> Inputs:
    """The inputs of ``workload`` for ``seed``; one seed, one set of inputs."""
    if workload not in WORKLOADS:
        raise ValueError(
            f"unknown workload {workload!r} (have {', '.join(WORKLOADS)})"
        )
    rng = random.Random(f"{workload}:{seed}")
    if workload == "report-cold":
        return Inputs(workload, seed, _draw_report_subset(rng))
    program_seeds = tuple(
        rng.randint(*_PROGRAM_SEED_RANGE) for _ in BENCHMARK_ORDER
    )
    machines: Tuple[Dict[str, object], ...] = ()
    if workload == "timing-grid":
        machines = (dict(BASELINE_MACHINE),) + _draw_machines(rng)
    return Inputs(workload, seed, tuple(BENCHMARK_ORDER), program_seeds,
                  machines)


def _draw_report_subset(rng: random.Random) -> Tuple[str, ...]:
    while True:
        chosen = set(rng.sample(BENCHMARK_ORDER, REPORT_SUBSET))
        if sum(len(input_names(name)) for name in chosen) == REPORT_INPUTS:
            return tuple(name for name in BENCHMARK_ORDER if name in chosen)


def _draw_machines(rng: random.Random) -> Tuple[Dict[str, object], ...]:
    while True:
        columns = {
            axis: rng.sample(levels, len(levels))
            for axis, levels in TIMING_LEVELS.items()
        }
        machines = []
        for index, mode in enumerate(TIMING_MODES):
            spec: Dict[str, object] = {
                "svf_mode": mode,
                "width": columns["width"][index],
                "dl1_ports": columns["dl1_ports"][index],
            }
            if mode != "none":
                spec["svf_ports"] = columns["svf_ports"][index]
                spec["svf_capacity"] = columns["svf_capacity"][index]
            machines.append(spec)
        # A drawn machine equal to the baseline would be deduplicated
        # by the batch engine and shrink the grid; draw again.
        if not any(_same_as_baseline(spec) for spec in machines):
            return tuple(machines)


def _same_as_baseline(spec: Dict[str, object]) -> bool:
    return (
        spec["svf_mode"] == "none"
        and spec["width"] == 16
        and spec["dl1_ports"] == 2
    )
