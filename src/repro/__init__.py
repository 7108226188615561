"""repro — reproduction of "Stack Value File: Custom Microarchitecture
for the Stack" (Lee, Smelyanskiy, Newburn, Tyson — HPCA 2001).

Layers, bottom-up:

* :mod:`repro.isa` — Alpha-like 64-bit RISC ISA and assembler;
* :mod:`repro.lang` — MiniC compiler (the workload substrate);
* :mod:`repro.analysis` — static CFG/dataflow analysis and the
  stack-discipline linter guarding the toolchain's output;
* :mod:`repro.emulator` — functional emulator producing dynamic traces;
* :mod:`repro.trace` — columnar traces, region classification, analyses;
* :mod:`repro.uarch` — out-of-order timing model (Table 2 machines);
* :mod:`repro.core` — the Stack Value File, the decoupled stack-cache
  baseline, and the traffic/context-switch models;
* :mod:`repro.workloads` — the SPECint2000-inspired suite (Table 1);
* :mod:`repro.harness` — one experiment driver per table/figure.

The stable entry points live in :mod:`repro.api` (re-exported here):
frozen option objects plus the verbs ``compile_source``,
``run_workload``, ``characterize``, ``simulate``, ``lint`` and
``experiment``.  Quick start::

    from repro import MachineSpec, simulate, workload

    trace = workload("crafty").trace(max_instructions=50_000)
    base = simulate(trace, MachineSpec())
    svf = simulate(trace, MachineSpec(svf_mode="svf"))
    print(svf.speedup_over(base))

The older explicit form (``table2_config(16)`` /
``config.with_svf(...)`` / ``uarch.simulate``) keeps working —
:func:`repro.api.simulate` accepts a raw :class:`MachineConfig` too.
"""

__version__ = "1.2.0"

from repro.analysis import LintReport, Severity, lint_all, lint_program
from repro.api import (
    SCHEMA_VERSION,
    CertifyResult,
    CompileOptions,
    ExperimentResult,
    MachineSpec,
    RunResult,
    certify,
    characterize,
    compile_source,
    experiment,
    lint,
    run_workload,
    simulate,
)
from repro.core import StackCache, StackValueFile
from repro.uarch import MachineConfig, SimStats, table2_config
from repro.workloads import all_workloads, workload

__all__ = [
    "CertifyResult",
    "CompileOptions",
    "ExperimentResult",
    "LintReport",
    "MachineConfig",
    "MachineSpec",
    "RunResult",
    "SCHEMA_VERSION",
    "Severity",
    "SimStats",
    "StackCache",
    "StackValueFile",
    "__version__",
    "all_workloads",
    "certify",
    "characterize",
    "compile_source",
    "experiment",
    "lint",
    "lint_all",
    "lint_program",
    "run_workload",
    "simulate",
    "table2_config",
    "workload",
]
