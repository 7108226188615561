"""One repetition of one benchmark workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload timing-grid --seed 1 --trace 0 \\
        --t0 <caller's time.monotonic()> --out rep.json --scratch DIR \\
        [--setup-only] [--no-numpy]

Set-up runs from interpreter start (``--t0``, taken by the caller just
before it started this process) to the workload's first emulated
instruction: imports, input generation and, on timing-grid and
stack-traffic, compiling every program.  The timed run follows: it
ends when the workload's outputs are written.  Digests of the outputs
are taken after it.

With ``--trace 1`` spans are recorded around each call into a layer
and the program's own :class:`~repro.profiling.PhaseProfiler` is
installed; both leave in the JSON record written to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + reaped.ru_utime + reaped.ru_stime)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, reaped) / 1024.0  # ru_maxrss is in KiB on Linux


def _dir_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*")
               if entry.is_file())


def _column_bytes(trace) -> int:
    from repro.trace.columnar import ColumnarTrace

    return sum(memoryview(getattr(trace, name)).nbytes
               for name in ColumnarTrace.__slots__)


class Repetition:
    """Set-up and timed run of one workload; records what it measured."""

    def __init__(self, inputs, tracer, profiler, scratch: Path):
        self.inputs = inputs
        self.tracer = tracer
        self.profiler = profiler
        self.scratch = scratch
        #: operation id -> output object (None when it raised)
        self.outputs = {}
        self.errors = []
        self.counts = {"instructions": 0, "column_bytes": 0}

    # ------------------------------------------------------------ set-up
    def compile_programs(self, opt_levels):
        from repro.api import CompileOptions
        from repro.workloads import workload

        self.programs = []
        for name, seed in zip(self.inputs.benchmarks,
                              self.inputs.program_seeds):
            work = workload(name)
            for opt in opt_levels:
                options = CompileOptions(opt_level=opt).codegen()
                try:
                    with self.tracer.span("lang.compile", program=name,
                                          opt=opt):
                        program = work.program(options, seed=seed)
                except Exception as exc:
                    self._error(f"{name}/O{opt} compile", exc)
                    program = None
                self.programs.append((name, opt, program))

    def _error(self, what: str, exc: Exception) -> None:
        self.errors.append(f"{what}: {type(exc).__name__}: {exc}")

    def finish(self) -> dict:
        """Facts gathered after the timed run, for the record."""
        return {}

    def digests(self) -> dict:
        from checks import digest

        return {op: None if output is None else digest(output)
                for op, output in self.outputs.items()}

    def emulate(self, program, window):
        from repro.emulator.machine import Machine
        from repro.trace.columnar import ColumnarTrace

        with self.tracer.span("emulator.run") as attrs:
            trace = ColumnarTrace()
            machine = Machine(program)
            executed = machine.run(max_instructions=window,
                                   trace_sink=trace)
        attrs["instructions"] = executed
        self.counts["instructions"] += executed
        self.counts["column_bytes"] += _column_bytes(trace)
        return machine, trace


class TimingGrid(Repetition):
    def setup(self):
        from repro.api import MachineSpec

        self.compile_programs(opt_levels=(0,))
        self.machines = [MachineSpec(**spec) for spec in self.inputs.machines]

    def run(self):
        from repro.api import simulate_batch
        from inputs import TIMING_WINDOW

        for name, _, program in self.programs:
            ops = [f"{name}/m{index}" for index in range(len(self.machines))]
            try:
                if program is None:
                    raise RuntimeError("program did not compile")
                _, trace = self.emulate(program, TIMING_WINDOW)
                with self.tracer.span("uarch.simulate_batch",
                                      configs=len(self.machines)):
                    results = simulate_batch(trace, self.machines)
            except Exception as exc:
                self._error(name, exc)
                results = [None] * len(ops)
            self.outputs.update(zip(ops, results))


class StackTraffic(Repetition):
    def setup(self):
        from inputs import STACK_OPT_LEVELS

        self.compile_programs(opt_levels=STACK_OPT_LEVELS)

    def run(self):
        from repro.core.traffic import simulate_traffic
        from repro.emulator.memory import STACK_BASE
        from repro.trace.analysis import (
            AccessDistribution,
            OffsetLocality,
            StackDepthProfile,
            consume_trace,
        )
        from repro.trace.first_touch import FirstTouchProfile
        from inputs import STACK_WINDOW, SWITCH_PERIOD, TRAFFIC_CAPACITY

        for name, opt, program in self.programs:
            op = f"{name}/O{opt}"
            try:
                if program is None:
                    raise RuntimeError("program did not compile")
                machine, trace = self.emulate(program, STACK_WINDOW)
                with self.tracer.span("core.simulate_traffic"):
                    traffic = simulate_traffic(
                        trace,
                        capacity_bytes=TRAFFIC_CAPACITY,
                        context_switch_period=SWITCH_PERIOD,
                    )
                sinks = (
                    AccessDistribution(),
                    StackDepthProfile(stack_base=STACK_BASE),
                    OffsetLocality(),
                    FirstTouchProfile(),
                )
                with self.tracer.span("trace.consume_trace"):
                    consume_trace(trace, sinks)
                self.outputs[op] = {
                    "traffic": traffic,
                    "characterization": sinks,
                    "output": list(machine.output),
                    "retired": machine.instruction_count,
                    "halted": machine.halted,
                }
            except Exception as exc:
                self._error(op, exc)
                self.outputs[op] = None


class ReportCold(Repetition):
    def setup(self):
        from repro.api import ReportOptions
        from inputs import (
            REPORT_FUNCTIONAL_WINDOW,
            REPORT_JOBS,
            REPORT_TIMING_WINDOW,
        )

        self.cache = self.scratch / "cache"
        self.options = ReportOptions(
            timing_window=REPORT_TIMING_WINDOW,
            functional_window=REPORT_FUNCTIONAL_WINDOW,
            benchmarks=self.inputs.benchmarks,
            jobs=REPORT_JOBS,
            cache_dir=str(self.cache),
        )
        self.counts["retries"] = 0

    def run(self):
        from repro.api import generate_report

        def progress(message: str) -> None:
            if message.startswith("retrying "):
                self.counts["retries"] += 1

        try:
            with self.tracer.span("harness.generate_report"):
                text = generate_report(self.options, progress=progress,
                                       profiler=self.profiler)
            with self.tracer.span("bench.write_report"):
                (self.scratch / "report.md").write_text(text)
        except Exception as exc:
            self._error("report", exc)
            text = None
        self.text = text

    def finish(self) -> dict:
        """Engine facts, leak check and cache size."""
        from repro.harness.parallel import (
            last_engine_report,
            leaked_shm_segments,
        )

        engine = last_engine_report()
        facts = {"engine": None, "leaked_shm": []}
        if engine is not None:
            if engine.shm_prefix:
                facts["leaked_shm"] = leaked_shm_segments(engine.shm_prefix)
            facts["engine"] = {
                "workers": len(engine.worker_pids),
                "recycled": engine.recycled,
                "timeouts": engine.timeouts,
                "broken": engine.broken,
                "shm_segments": engine.shm_segments,
                "shm_bytes": engine.shm_bytes,
            }
        self.counts["cache_bytes"] = (
            _dir_bytes(self.cache) if self.cache.is_dir() else 0
        )
        return facts

    def digests(self) -> dict:
        """One digest per report row; a report that raised or has no
        rows is one failed operation."""
        from checks import report_rows

        rows = {} if self.text is None else report_rows(self.text)
        return rows or {"report": None}


KINDS = {
    "report-cold": ReportCold,
    "timing-grid": TimingGrid,
    "stack-traffic": StackTraffic,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--no-numpy", action="store_true")
    args = parser.parse_args(argv)

    from repro import profiling
    from repro.trace.columnar import set_numpy_enabled
    import inputs
    from spans import Tracer

    if args.no_numpy:
        set_numpy_enabled(False)
    traced = bool(args.trace)
    tracer = Tracer(traced)
    profiler = profiling.PhaseProfiler() if traced else None
    record = {"workload": args.workload, "seed": args.seed,
              "traced": traced, "setup_only": args.setup_only}

    with profiling.profiled(profiler) if traced else nullcontext():
        with tracer.span("bench.setup"):
            rep = KINDS[args.workload](
                inputs.draw(args.workload, args.seed), tracer, profiler,
                Path(args.scratch),
            )
            rep.setup()
        setup_end = time.monotonic()
        record["setup_s"] = setup_end - args.t0
        if args.setup_only:
            _write(args.out, record)
            return 0
        cpu_before = _cpu_seconds()
        with tracer.span("bench.workload"):
            rep.run()
        wall_end = time.monotonic()
        record["cpu_s"] = _cpu_seconds() - cpu_before
    record["wall_s"] = wall_end - setup_end
    record["peak_rss_mb"] = _peak_rss_mb()
    record.update(rep.finish())
    record["ops"] = rep.digests()
    record["errors"] = rep.errors
    record["counts"] = rep.counts
    if traced:
        record["spans"] = tracer.spans
        record["profile"] = profiler.snapshot()
    _write(args.out, record)
    return 0


def _write(path: str, record: dict) -> None:
    Path(path).write_text(json.dumps(record))


if __name__ == "__main__":
    sys.exit(main())
