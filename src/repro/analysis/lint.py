"""Lint driver: run the SVF-safety passes over programs and workloads.

This is the library API behind ``repro lint``:

* :func:`lint_program` — lint one assembled :class:`Program`;
* :func:`lint_assembly` — convenience for hand-written assembler text;
* :func:`lint_workload` — compile one registry workload and lint it;
* :func:`lint_all` — every registry benchmark (including the
  partial-word extension), one report per workload.

A lint run is purely static — no emulation — so linting the whole
suite costs roughly one compile per workload and is cheap enough to
gate every simulation campaign (and CI) on a clean result.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.cfg import build_cfg
from repro.analysis.report import LintReport
from repro.analysis.stackcheck import check_program
from repro.isa.instructions import Program


def lint_program(program: Program, name: str = "program") -> LintReport:
    """Run every stack-discipline pass over one assembled program."""
    pcfg = build_cfg(program)
    diagnostics = check_program(program, pcfg)
    return LintReport(
        name=name,
        diagnostics=diagnostics,
        instruction_count=len(program),
        function_count=len(pcfg.functions),
    )


def lint_assembly(source: str, entry: str = "main",
                  name: str = "assembly") -> LintReport:
    """Assemble ``source`` and lint the result.

    A source without the entry label (e.g. an empty file) still lints:
    it assembles as a functionless program and reports clean with an
    explicit "(no functions)" note rather than failing.
    """
    from repro.isa.assembler import AssemblerError, assemble

    try:
        program = assemble(source, entry=entry)
    except AssemblerError as exc:
        if "missing entry label" not in str(exc):
            raise
        program = assemble(f"{source}\n{entry}:\n", entry=entry)
    return lint_program(program, name=name)


def lint_workload(
    benchmark: str,
    input_name: Optional[str] = None,
    options=None,
) -> LintReport:
    """Compile one registry workload and lint the generated code."""
    from repro.workloads import workload

    work = workload(benchmark, input_name)
    return lint_program(work.program(options), name=work.full_name)


def lint_all(options=None) -> List[LintReport]:
    """Lint every registry benchmark (first input set of each).

    Covers the twelve Table-1 workloads plus the ``ext.x86mix``
    partial-word extension — all 13 registry entries, in registry
    order.
    """
    from repro.workloads import ALL_BENCHMARKS

    return [
        lint_workload(benchmark, options=options)
        for benchmark in ALL_BENCHMARKS
    ]
