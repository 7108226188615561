"""Command-line interface: ``python -m repro <command>``.

Commands:

``list``
    list the workload suite (benchmarks, inputs, descriptions).
``run <workload> [--input NAME] [-O LEVEL] [--max-instructions N]``
    compile and execute a workload on the functional emulator.
``characterize [<workload> ...] [--format text|json]``
    Figures 1-3 for the chosen workloads (default: whole suite).
``simulate <workload> [--width W] [--svf MODE] [--ports P] ...``
    time one workload on a Table-2 machine, optionally with a stack
    unit attached, and report cycles/IPC (plus speedup vs baseline).
``compile <file.mc> [--emit asm|run] [-O LEVEL]``
    compile a MiniC source file; print assembly or run it and print
    its output.
``experiment <name> [--window N] [--format text|json]``
    regenerate one paper artifact: table1, table2, fig1, fig2, fig3,
    fig5, fig6, fig7, fig8, fig9, table3, table4.
``report [--jobs N] [--cache-dir DIR] [--no-cache] [--benchmarks ...]``
    run the whole battery through the parallel engine and write one
    markdown report; ``--jobs`` picks the worker count (default: CPU
    count) and the output is byte-identical for every value.
    ``--profile`` additionally prints the sweep's per-phase wall-time
    breakdown (compile/emulate/timing/traffic/analysis/render) and the
    cache hit/miss counters to stdout.  A warm cache re-runs no cell
    whose payload it holds; its directory is named by a digest of the
    source code, so the first run after any edit starts a fresh one.
``profile <workload> [--max-instructions N]``
    run one workload end to end (compile, emulate, time, traffic,
    characterization analyses) under the phase profiler and print the
    per-phase breakdown.
``predict [--jobs N] [--benchmarks ...]``
    cross-check the static SVF-traffic bounds against full dynamic
    runs over the parallel engine; exits nonzero on a bound violation.
``lint <workload> | --all | --asm FILE [-O LEVEL]``
    statically verify stack discipline (balanced ``$sp``, frame
    bounds, first-read, dead stores, address escapes) on compiled
    workloads or a hand-written assembly file; exits nonzero when
    error-severity diagnostics exist.
``sweep <suite.yaml> [--jobs N] [--out DIR] [--format table|json]``
    expand a declarative suite descriptor (workloads × MachineSpec
    grid × opt levels × repetitions) into task cells over the
    parallel engine and write a run-table artifact plus a rendered
    summary.  The run table is byte-identical across ``--jobs``
    values and warm re-runs; cached rows are skipped, so sweeps are
    resumable.  Rows sharing a (workload, opt level, repetition) run
    as one group cell that fetches the trace once; timing rows time
    the whole grid through one ``simulate_batch`` call.  ``--dry-run``
    validates and prints the expansion plan without running anything;
    exit 1 when any row degraded to a gap.
``chaos [--suite FILE] [--kill N] [--hang N] [--corrupt N] [--seed S]``
    drive a real report (or sweep) under a seeded fault plan — worker
    SIGKILLs, hangs, injected failures, cache corruption, concurrent
    runs on one cache dir — and verify the documented failure
    invariants: output byte-identical or explicitly annotated, cache
    never poisoned, no orphan workers.  Exit 1 when any invariant is
    violated.
``certify <workload> | --all | --adversarial | --asm FILE``
    whole-program stack-safety certification: call graph,
    interprocedural summaries, worst-case depth bound (or UNBOUNDED
    with a recursion cycle), per-slot escape classes, LIFO
    proof/counterexample, per-function integrity/confidentiality.
    ``--validate`` additionally runs the emulator and cross-checks
    observed depth and escapes against the certificate.  Exit 1 on
    hard flags (lifo-violation, structural, unclean-escape) or a
    validation failure; soft flags (unbounded-depth, unknown-callee)
    exit 0.

Exit codes are uniform across commands: 0 success, 1 the command ran
but found failures (lint errors), 2 usage errors — unknown names,
unreadable input files, unwritable output or cache paths (checked
before any work runs), a count option (``--max-instructions``,
``--window``, ``--timing-window``, ``--functional-window``, ``--jobs``)
below 1 — reported as a one-line message on stderr, never a traceback.  All subsystem access goes through the stable
:mod:`repro.api` facade; JSON outputs carry its ``schema_version``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro import api
from repro.errors import UsageError, read_text
from repro.workloads import BENCHMARK_ORDER, input_names, workload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Stack Value File (HPCA 2001) reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def opt_flag(subparser):
        subparser.add_argument(
            "-O", "--opt-level", type=int, default=0, choices=(0, 1),
            help="optimizer level (0 = naive codegen, 1 = dataflow passes)",
        )

    commands.add_parser("list", help="list the workload suite")

    run_parser = commands.add_parser("run", help="execute a workload")
    run_parser.add_argument("workload")
    run_parser.add_argument("--input", default=None)
    run_parser.add_argument("--max-instructions", type=int, default=None)
    opt_flag(run_parser)

    char_parser = commands.add_parser(
        "characterize", help="Figures 1-3 analyses"
    )
    char_parser.add_argument("workloads", nargs="*")
    char_parser.add_argument(
        "--max-instructions", type=int, default=100_000
    )
    char_parser.add_argument(
        "--format", default="text", choices=("text", "json"),
    )

    sim_parser = commands.add_parser(
        "simulate", help="time a workload on a Table-2 machine"
    )
    sim_parser.add_argument("workload")
    sim_parser.add_argument("--input", default=None)
    sim_parser.add_argument("--width", type=int, default=16,
                            choices=(4, 8, 16))
    sim_parser.add_argument("--dl1-ports", type=int, default=2)
    sim_parser.add_argument(
        "--svf", default="none",
        choices=("none", "svf", "ideal", "stack_cache"),
    )
    sim_parser.add_argument("--ports", type=int, default=2)
    sim_parser.add_argument("--capacity", type=int, default=8192)
    sim_parser.add_argument("--no-squash", action="store_true")
    sim_parser.add_argument("--predictor", default="perfect",
                            choices=("perfect", "gshare"))
    sim_parser.add_argument("--max-instructions", type=int, default=60_000)
    opt_flag(sim_parser)

    compile_parser = commands.add_parser(
        "compile", help="compile a MiniC source file"
    )
    compile_parser.add_argument("source")
    compile_parser.add_argument("--emit", default="asm",
                                choices=("asm", "run"))
    compile_parser.add_argument("--max-instructions", type=int,
                                default=None)
    opt_flag(compile_parser)

    lint_parser = commands.add_parser(
        "lint", help="stack-discipline lint of compiled workloads"
    )
    lint_parser.add_argument(
        "workload", nargs="?", default=None,
        help="benchmark to lint (default: requires --all)",
    )
    lint_parser.add_argument("--input", default=None)
    lint_parser.add_argument(
        "--all", action="store_true",
        help="lint every registry workload (all 13 programs)",
    )
    lint_parser.add_argument(
        "--format", default="text", choices=("text", "json"),
    )
    lint_parser.add_argument(
        "--max-info", type=int, default=None,
        help="truncate info-severity diagnostics per workload (text)",
    )
    lint_parser.add_argument(
        "--asm", default=None, metavar="FILE",
        help="lint a hand-written assembly file instead of a workload",
    )
    opt_flag(lint_parser)

    certify_parser = commands.add_parser(
        "certify",
        help="whole-program stack-safety certification",
    )
    certify_parser.add_argument(
        "workload", nargs="?", default=None,
        help="benchmark to certify (default: requires --all/--adversarial)",
    )
    certify_parser.add_argument("--input", default=None)
    certify_parser.add_argument(
        "--all", action="store_true",
        help="certify every registry workload (all 13 programs)",
    )
    certify_parser.add_argument(
        "--adversarial", action="store_true",
        help="certify the adversarial (contract-violating) family",
    )
    certify_parser.add_argument(
        "--asm", default=None, metavar="FILE",
        help="certify a hand-written assembly file",
    )
    certify_parser.add_argument(
        "--validate", action="store_true",
        help="run the emulator and cross-check the certificate",
    )
    certify_parser.add_argument(
        "--max-instructions", type=int, default=None,
        help="instruction cap for --validate runs (default: full runs)",
    )
    certify_parser.add_argument(
        "--format", default="text", choices=("text", "json"),
    )
    certify_parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="include the per-function verdict table (text format)",
    )
    opt_flag(certify_parser)

    sweep_parser = commands.add_parser(
        "sweep",
        help="run a declarative design-space sweep from a suite file",
    )
    sweep_parser.add_argument(
        "suite", help="suite descriptor (.yaml/.yml or .json)"
    )
    sweep_parser.add_argument(
        "--jobs", type=int, default=None,
        help="parallel worker processes (default: CPU count; 1 = serial)",
    )
    sweep_parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="artifact directory (default: sweeps/<suite-name>)",
    )
    sweep_parser.add_argument(
        "--cache-dir", default=None,
        help="trace-cache directory (default: ~/.cache/repro-svf)",
    )
    sweep_parser.add_argument(
        "--no-cache", action="store_true",
        help="use a temporary cache that lasts only this run "
             "(sweeps stop being resumable)",
    )
    sweep_parser.add_argument(
        "--format", default="table", choices=("table", "json"),
        help="print the rendered summary or the run-table JSON",
    )
    sweep_parser.add_argument(
        "--dry-run", action="store_true",
        help="validate the descriptor and print the plan; run nothing",
    )
    sweep_parser.add_argument(
        "--task-timeout", type=float, default=600.0,
        help="per-attempt cell deadline in seconds, from submission",
    )

    chaos_parser = commands.add_parser(
        "chaos",
        help="inject worker/cache faults and verify failure invariants",
    )
    chaos_parser.add_argument(
        "--benchmarks", nargs="*", default=["gzip"],
        help="benchmark subset the chaotic report runs (default: gzip)",
    )
    chaos_parser.add_argument(
        "--suite", default=None,
        help="target a sweep suite descriptor instead of the report",
    )
    chaos_parser.add_argument(
        "--jobs", type=int, default=2,
        help="engine worker processes during the chaos run (default: 2)",
    )
    chaos_parser.add_argument("--seed", type=int, default=0)
    chaos_parser.add_argument(
        "--kill", type=int, default=1, metavar="N",
        help="cells whose worker is SIGKILLed mid-cell (default: 1)",
    )
    chaos_parser.add_argument(
        "--hang", type=int, default=1, metavar="N",
        help="cells hung past the task deadline (default: 1)",
    )
    chaos_parser.add_argument(
        "--fail", type=int, default=1, metavar="N",
        help="cells that raise an injected exception (default: 1)",
    )
    chaos_parser.add_argument(
        "--corrupt", type=int, default=2, metavar="N",
        help="cache entries truncated/bit-flipped between runs",
    )
    chaos_parser.add_argument(
        "--hang-seconds", type=float, default=30.0,
        help="injected hang length (must exceed --task-timeout)",
    )
    chaos_parser.add_argument(
        "--task-timeout", type=float, default=20.0,
        help="per-attempt cell deadline during the chaos run",
    )
    chaos_parser.add_argument("--timing-window", type=int, default=1_500)
    chaos_parser.add_argument(
        "--functional-window", type=int, default=1_500
    )
    chaos_parser.add_argument(
        "--no-concurrent", action="store_true",
        help="skip the two-runs-one-cache-dir race round",
    )
    chaos_parser.add_argument(
        "--work-dir", default=None,
        help="directory for caches and the fault ledger (default: a "
             "temporary directory, removed when the run ends)",
    )
    chaos_parser.add_argument(
        "--format", default="text", choices=("text", "json"),
    )

    exp_parser = commands.add_parser(
        "experiment", help="regenerate one paper table/figure"
    )
    exp_parser.add_argument("name", choices=api.EXPERIMENT_NAMES)
    exp_parser.add_argument("--window", type=int, default=None)
    exp_parser.add_argument(
        "--format", default="text", choices=("text", "json"),
    )

    report_parser = commands.add_parser(
        "report", help="run every experiment and write one markdown report"
    )
    report_parser.add_argument("--output", default="REPORT.md")
    report_parser.add_argument("--timing-window", type=int, default=40_000)
    report_parser.add_argument(
        "--functional-window", type=int, default=80_000
    )
    report_parser.add_argument(
        "--benchmarks", nargs="*", default=None,
        help="subset of benchmarks (default: full suite)",
    )
    report_parser.add_argument(
        "--jobs", type=int, default=None,
        help="parallel worker processes (default: CPU count; 1 = serial)",
    )
    report_parser.add_argument(
        "--cache-dir", default=None,
        help="trace-cache directory (default: ~/.cache/repro-svf)",
    )
    report_parser.add_argument(
        "--no-cache", action="store_true",
        help="use a temporary cache that lasts only this run",
    )
    report_parser.add_argument(
        "--profile", action="store_true",
        help="print the per-phase wall-time breakdown after the report",
    )

    profile_parser = commands.add_parser(
        "profile", help="per-phase wall-time breakdown for one workload"
    )
    profile_parser.add_argument("workload")
    profile_parser.add_argument("--input", default=None)
    profile_parser.add_argument(
        "--max-instructions", type=int, default=40_000
    )
    opt_flag(profile_parser)

    predict_parser = commands.add_parser(
        "predict",
        help="check static SVF-traffic bounds against dynamic runs",
    )
    predict_parser.add_argument(
        "--benchmarks", nargs="*", default=None,
        help="subset of benchmarks (default: all 13 programs)",
    )
    predict_parser.add_argument(
        "--max-instructions", type=int, default=None,
        help="instruction window (default: full runs)",
    )
    predict_parser.add_argument("--capacity", type=int, default=8192)
    predict_parser.add_argument(
        "--jobs", type=int, default=None,
        help="parallel worker processes (default: CPU count; 1 = serial)",
    )
    predict_parser.add_argument(
        "--output", default=None,
        help="write the report to a file instead of stdout",
    )

    trace_parser = commands.add_parser(
        "trace", help="record a workload trace to a file"
    )
    trace_parser.add_argument("workload")
    trace_parser.add_argument("output")
    trace_parser.add_argument("--input", default=None)
    trace_parser.add_argument("--max-instructions", type=int,
                              default=100_000)
    opt_flag(trace_parser)

    replay_parser = commands.add_parser(
        "replay", help="time a recorded trace on a machine config"
    )
    replay_parser.add_argument("trace_file")
    replay_parser.add_argument("--width", type=int, default=16,
                               choices=(4, 8, 16))
    replay_parser.add_argument(
        "--svf", default="none",
        choices=("none", "svf", "ideal", "stack_cache"),
    )
    replay_parser.add_argument("--ports", type=int, default=2)
    return parser


#: Count options every command that has them requires to be >= 1.
_COUNT_OPTIONS = (
    "max_instructions", "window", "timing_window", "functional_window",
    "jobs",
)


def _fail(message: str) -> int:
    """Uniform one-line usage error: stderr message, exit code 2."""
    print(f"repro: {message}", file=sys.stderr)
    return 2


def _check_output_file(command: str, path: str) -> None:
    """Fail before any work runs when ``path`` cannot be written."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.path.isdir(folder):
        raise UsageError(f"{command}: cannot write a file at {path}")


def _machine_config(spec: api.MachineSpec) -> api.MachineConfig:
    """``spec.config()``, with an out-of-range field as a usage error."""
    try:
        return spec.config()
    except ValueError as exc:
        raise UsageError(f"invalid machine: {exc}")


def _compile_options(args) -> api.CompileOptions:
    return api.CompileOptions(opt_level=getattr(args, "opt_level", 0))


def cmd_list(_args) -> int:
    print(api.experiment("table1").render())
    print()
    for name in BENCHMARK_ORDER:
        print(f"{name}: inputs = {', '.join(input_names(name))}")
    return 0


def cmd_run(args) -> int:
    try:
        result = api.run_workload(
            args.workload,
            args.input,
            options=_compile_options(args),
            max_instructions=args.max_instructions,
        )
    except KeyError as exc:
        return _fail(exc.args[0])
    print(f"{result.workload}: {result.instructions:,} instructions, "
          f"halted={result.halted}")
    print(f"output: {list(result.output)}")
    return 0


def cmd_characterize(args) -> int:
    try:
        result = api.characterize(
            benchmarks=args.workloads or None,
            max_instructions=args.max_instructions,
        )
    except KeyError as exc:
        return _fail(exc.args[0])
    renders = {
        "fig1": result.render_fig1(),
        "fig2": result.render_fig2(),
        "fig3": result.render_fig3(),
    }
    if args.format == "json":
        print(json.dumps(api.versioned(
            {"kind": "characterize", "figures": renders}
        ), indent=2))
    else:
        print("\n\n".join(renders.values()))
    return 0


def cmd_simulate(args) -> int:
    try:
        work = workload(args.workload, args.input)
    except KeyError as exc:
        return _fail(exc.args[0])
    spec = api.MachineSpec(
        width=args.width,
        dl1_ports=args.dl1_ports,
        branch_predictor=args.predictor,
        svf_mode=args.svf,
        svf_ports=args.ports,
        svf_capacity=args.capacity,
        no_squash=args.no_squash,
    )
    config = _machine_config(spec)
    base_config = api.MachineSpec(
        width=args.width,
        dl1_ports=args.dl1_ports,
        branch_predictor=args.predictor,
    ).config()
    options = _compile_options(args)
    trace = work.trace(
        max_instructions=args.max_instructions, options=options.codegen()
    )
    baseline = api.simulate(trace, base_config)
    print(f"{work.full_name} on {base_config.name} "
          f"({len(trace):,}-instruction window)")
    print(f"baseline: {baseline.cycles:,} cycles, IPC {baseline.ipc:.2f}")
    if args.svf == "none":
        return 0
    run = api.simulate(trace, config)
    speedup = run.speedup_over(baseline)
    print(f"{args.svf:8s}: {run.cycles:,} cycles, IPC {run.ipc:.2f}, "
          f"speedup {(speedup - 1) * 100:+.1f}%")
    if args.svf == "svf":
        print(f"  morphed {run.svf_fast_loads + run.svf_fast_stores:,} "
              f"({run.svf_fast_fraction:.0%}), "
              f"re-routed {run.svf_rerouted:,}, "
              f"fills {run.svf_fills:,}, squashes {run.svf_squashes:,}")
    return 0


def cmd_compile(args) -> int:
    from repro.emulator import Machine
    from repro.lang import CodegenError, LexerError, ParseError, SemanticError

    emit = "asm" if args.emit == "asm" else "program"
    source = read_text("compile", args.source, "source file")
    try:
        compiled = api.compile_source(
            source, _compile_options(args), emit=emit
        )
    except (LexerError, ParseError, SemanticError, CodegenError) as exc:
        return _fail(f"compile: {args.source}: {exc}")
    if args.emit == "asm":
        print(compiled)
        return 0
    machine = Machine(compiled)
    machine.run(max_instructions=args.max_instructions)
    print(f"{machine.instruction_count:,} instructions, "
          f"halted={machine.halted}")
    print(f"output: {machine.output}")
    return 0


def cmd_lint(args) -> int:
    from repro.analysis import render_reports

    chosen = sum((args.all, args.workload is not None, args.asm is not None))
    if chosen > 1:
        return _fail("lint: --all, --asm and naming a workload conflict")
    options = _compile_options(args)
    try:
        if args.all:
            reports = api.lint(options=options)
        elif args.asm is not None:
            from repro.analysis.lint import lint_assembly
            from repro.isa.assembler import AssemblerError

            source = read_text("lint", args.asm, "assembly file")
            try:
                reports = [lint_assembly(source, name=args.asm)]
            except AssemblerError as exc:
                return _fail(f"lint: {args.asm}: {exc}")
        elif args.workload is not None:
            reports = api.lint(args.workload, args.input, options=options)
        else:
            return _fail("lint: name a workload or pass --all/--asm")
    except KeyError as exc:
        return _fail(exc.args[0])
    if args.format == "json":
        print(api.lint_json(reports))
    else:
        print(render_reports(reports, max_info=args.max_info))
    return 0 if all(report.ok for report in reports) else 1


def cmd_certify(args) -> int:
    from repro.analysis.certify import render_certificates
    from repro.harness.certification import render_validations

    chosen = sum((
        args.all, args.adversarial,
        args.workload is not None, args.asm is not None,
    ))
    if chosen > 1:
        return _fail(
            "certify: --all, --adversarial, --asm and naming a "
            "workload conflict"
        )
    if chosen == 0:
        return _fail(
            "certify: name a workload or pass --all/--adversarial/--asm"
        )
    options = _compile_options(args)
    try:
        if args.asm is not None:
            from repro.isa.assembler import AssemblerError, assemble

            source = read_text("certify", args.asm, "assembly file")
            try:
                program = assemble(source)
            except AssemblerError as exc:
                return _fail(f"certify: {args.asm}: {exc}")
            results = api.certify(
                program,
                validate=args.validate,
                max_instructions=args.max_instructions,
            )
            results[0].certificate.name = args.asm
            if results[0].validation is not None:
                results[0].validation.name = args.asm
        else:
            results = api.certify(
                args.workload,
                args.input,
                options=options,
                validate=args.validate,
                adversarial=args.adversarial,
                max_instructions=args.max_instructions,
            )
    except KeyError as exc:
        return _fail(exc.args[0])
    if args.format == "json":
        print(api.certify_json(results))
    else:
        print(render_certificates(
            [result.certificate for result in results],
            verbose=args.verbose,
        ))
        validations = [
            result.validation for result in results
            if result.validation is not None
        ]
        if validations:
            print()
            print(render_validations(validations))
    return 0 if all(result.ok for result in results) else 1


def cmd_sweep(args) -> int:
    spec = api.load_suite(args.suite)
    if args.dry_run:
        points = spec.expand()
        combos = spec.combos()
        print(f"suite {spec.name} ({spec.kind}): "
              f"{len(spec.workloads)} workloads x {len(combos)} configs "
              f"x {len(spec.opt_levels)} opt levels "
              f"x {spec.repetitions} reps = {len(points)} cells, "
              f"window {spec.window:,}")
        print(f"workloads: {', '.join(spec.workloads)}")
        print(f"factors: {', '.join(spec.factor_names) or '(none)'}")
        for combo in combos:
            label = ", ".join(f"{axis}={value}" for axis, value in combo)
            print(f"  {label or '(base)'}")
        return 0
    out_dir = args.out if args.out is not None else os.path.join(
        "sweeps", spec.name
    )
    options = api.SweepOptions(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        task_timeout=args.task_timeout,
        out_dir=out_dir,
    )
    result = api.sweep(
        spec,
        options,
        progress=lambda message: print(
            f"[sweep] {message}", file=sys.stderr
        ),
    )
    if args.format == "json":
        print(api.sweep_json(result))
    else:
        print(result.render_summary())
    return 0 if result.ok else 1


def cmd_chaos(args) -> int:
    if args.hang > 0 and args.hang_seconds <= args.task_timeout:
        return _fail(
            f"chaos: --hang-seconds ({args.hang_seconds}) must exceed "
            f"--task-timeout ({args.task_timeout}) for a hang to count"
        )
    options = api.ChaosOptions(
        benchmarks=tuple(args.benchmarks),
        suite=args.suite,
        jobs=args.jobs,
        seed=args.seed,
        kills=args.kill,
        hangs=args.hang,
        fails=args.fail,
        corrupt=args.corrupt,
        hang_seconds=args.hang_seconds,
        task_timeout=args.task_timeout,
        timing_window=args.timing_window,
        functional_window=args.functional_window,
        concurrent=not args.no_concurrent,
        work_dir=args.work_dir,
    )
    result = api.chaos_check(
        options,
        progress=lambda message: print(
            f"[chaos] {message}", file=sys.stderr
        ),
    )
    if args.format == "json":
        print(api.chaos_json(result))
    else:
        print(result.render())
    return 0 if result.ok else 1


def cmd_experiment(args) -> int:
    result = api.experiment(args.name, window=args.window)
    print(result.to_json() if args.format == "json" else result.render())
    return 0


def cmd_report(args) -> int:
    from repro.profiling import PhaseProfiler

    benchmarks = tuple(args.benchmarks) if args.benchmarks else None
    options = api.ReportOptions(
        timing_window=args.timing_window,
        functional_window=args.functional_window,
        benchmarks=benchmarks,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
    )
    _check_output_file("report", args.output)
    profiler = PhaseProfiler() if args.profile else None
    text = api.generate_report(
        options,
        progress=lambda message: print(f"[report] {message}"),
        profiler=profiler,
    )
    with open(args.output, "w") as handle:
        handle.write(text)
    print(f"wrote {args.output} ({len(text.splitlines())} lines)")
    if profiler is not None:
        print()
        print(profiler.render(title="Phase profile — full report"))
    return 0


def cmd_profile(args) -> int:
    from repro.core.traffic import simulate_traffic
    from repro.emulator.memory import STACK_BASE
    from repro.profiling import profiled
    from repro.trace.analysis import (
        AccessDistribution,
        OffsetLocality,
        StackDepthProfile,
        consume_trace,
    )
    from repro.trace.first_touch import FirstTouchProfile
    from repro.uarch.config import table2_config
    from repro.uarch.pipeline import simulate_batch

    try:
        work = workload(args.workload, args.input)
    except KeyError as exc:
        return _fail(exc.args[0])
    options = _compile_options(args)
    with profiled() as profiler:
        trace = work.trace(
            max_instructions=args.max_instructions,
            options=options.codegen(),
        )
        base = table2_config(16)
        svf_config = base.with_svf(mode="svf", ports=2)
        # One batch of two distinct machines: the profile shows
        # batch_configs alongside the phases (no walk is saved).
        baseline, svf = simulate_batch(trace, [base, svf_config])
        simulate_traffic(trace)
        # The Figure 1-3 characterization pass, so "analysis" shows up
        # as its own phase instead of folding into "traffic".
        consume_trace(
            trace,
            (
                AccessDistribution(),
                StackDepthProfile(stack_base=STACK_BASE),
                OffsetLocality(),
                FirstTouchProfile(),
            ),
        )
    speedup = svf.speedup_over(baseline)
    print(f"{work.full_name}: {len(trace):,} instructions traced; "
          f"svf speedup {(speedup - 1) * 100:+.1f}% "
          f"over the 16-wide baseline")
    print()
    print(profiler.render(title=f"Phase profile — {work.full_name}"))
    return 0


def cmd_predict(args) -> int:
    if args.output:
        _check_output_file("predict", args.output)
    report = api.predict(
        benchmarks=args.benchmarks or None,
        max_instructions=args.max_instructions,
        capacity_bytes=args.capacity,
        jobs=args.jobs,
        progress=lambda message: print(
            f"[predict] {message}", file=sys.stderr
        ),
    )
    text = report.render()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output} ({len(text.splitlines())} lines)")
    else:
        print(text)
    return 0 if report.all_bounds_hold else 1


def cmd_trace(args) -> int:
    from repro.trace import save_trace
    from repro.trace.columnar import ColumnarTrace

    try:
        work = workload(args.workload, args.input)
    except KeyError as exc:
        return _fail(exc.args[0])
    _check_output_file("trace", args.output)
    options = _compile_options(args)
    columns = ColumnarTrace()
    work.run(
        max_instructions=args.max_instructions,
        trace_sink=columns,
        options=options.codegen(),
    )
    count = save_trace(columns, args.output)
    print(f"wrote {count:,} records to {args.output}")
    return 0


def cmd_replay(args) -> int:
    from repro.trace import TraceFormatError, load_trace

    config = _machine_config(api.MachineSpec(
        width=args.width, svf_mode=args.svf, svf_ports=args.ports
    ))
    try:
        trace = load_trace(args.trace_file)
    except FileNotFoundError:
        return _fail(f"no such trace file: {args.trace_file}")
    except TraceFormatError as exc:
        return _fail(f"replay: {exc}")
    except OSError as exc:
        return _fail(f"replay: {args.trace_file}: {exc.strerror}")
    base = api.MachineSpec(width=args.width)
    baseline = api.simulate(trace, base)
    print(f"{args.trace_file}: {len(trace):,} instructions")
    print(f"baseline: {baseline.cycles:,} cycles, IPC {baseline.ipc:.2f}")
    if args.svf != "none":
        run = api.simulate(trace, config)
        speedup = run.speedup_over(baseline)
        print(f"{args.svf}: {run.cycles:,} cycles, "
              f"speedup {(speedup - 1) * 100:+.1f}%")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    for name in _COUNT_OPTIONS:
        value = getattr(args, name, None)
        if value is not None and value < 1:
            flag = "--" + name.replace("_", "-")
            return _fail(f"{args.command}: {flag} must be >= 1, not {value}")
    timeout = getattr(args, "task_timeout", None)
    if timeout is not None and not timeout > 0:  # NaN fails too
        return _fail(
            f"{args.command}: --task-timeout must be > 0, not {timeout}"
        )
    handlers = {
        "list": cmd_list,
        "run": cmd_run,
        "characterize": cmd_characterize,
        "simulate": cmd_simulate,
        "compile": cmd_compile,
        "experiment": cmd_experiment,
        "sweep": cmd_sweep,
        "chaos": cmd_chaos,
        "lint": cmd_lint,
        "certify": cmd_certify,
        "report": cmd_report,
        "profile": cmd_profile,
        "predict": cmd_predict,
        "trace": cmd_trace,
        "replay": cmd_replay,
    }
    try:
        return handlers[args.command](args)
    except UsageError as exc:
        return _fail(str(exc))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
