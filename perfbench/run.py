"""Layer-by-layer benchmark of the compile-emulate-timing/traffic pipeline.

    python3 perfbench/run.py --workload timing-grid --seed 1 \\
        --seconds 30 --trace 0

Runs repetitions of one workload (``report-cold``, ``timing-grid`` or
``stack-traffic``), each in a fresh interpreter (``rep.py``), for
about ``--seconds``, checks every operation's output digest, and
prints one JSON object as the last line of standard output::

    {"correct": true, "attempted": 180, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, medians over
the repetitions.  With ``--trace 1`` traced and untraced repetitions
alternate and the metrics are the per-layer ones, from the traced
repetitions' spans and the program's own counters.  Every run writes
one JSON document (provenance, every repetition, spans, counters) to
``perfbench/out/``.

Two more modes are not part of the gated benchmark:

    python3 perfbench/run.py --attribute [--workload W] [--seed N]
        reruns each workload with one fast path forced back to its
        reference and tabulates the per-layer change;
    python3 perfbench/run.py --record-digests
        records the output digests of the default and held-out seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

#: Repetitions every run makes, whatever ``--seconds`` says.
MIN_REPS = 3
#: Set-up samples behind the ``setup_s`` median: the untraced
#: repetitions' set-ups, topped up with set-up-only probes.
SETUP_SAMPLES = 5
#: A run ends within this many seconds: a repetition still running at
#: the limit is killed and counted failed.
RUN_LIMIT_S = 170.0

#: Fast paths the attribution mode forces back to their reference.
VARIANTS: Tuple[Tuple[str, Dict[str, str], Tuple[str, ...]], ...] = (
    ("default", {}, ()),
    ("superblock-off", {"REPRO_SUPERBLOCK": "0"}, ()),
    ("batch-off", {"REPRO_BATCH": "0"}, ()),
    ("numpy-off", {}, ("--no-numpy",)),
)
#: Traced repetitions of each variant in the attribution mode.
ATTRIBUTION_REPS = 3
UNMEASURED = {
    "shm-off": "no outside switch: ReportOptions does not expose "
               "EngineOptions.shared_memory",
}
#: Per-layer seconds the attribution mode compares, and the two counts
#: that show a switch took effect (0 with superblocks or batching off).
ATTRIBUTED = (
    "lang.compile_s",
    "emulator.run_s",
    "uarch.timing_s",
    "core.traffic_s",
    "trace.analysis_s",
    "harness.render_s",
    "emulator.superblock_coverage",
    "uarch.walks_saved_ratio",
)


def _repro_env() -> Dict[str, str]:
    return {key: value for key, value in os.environ.items()
            if key.startswith("REPRO_")}


def _child_env(overrides: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """The environment without ``REPRO_*`` switches, so every path is
    the default one users get, plus ``overrides``."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(overrides or {})
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_rep(workload: str, seed: int, traced: bool, *,
            setup_only: bool = False,
            env: Optional[Dict[str, str]] = None,
            extra: Tuple[str, ...] = (),
            timeout: float = RUN_LIMIT_S) -> Tuple[Optional[dict], str]:
    """One repetition in a fresh interpreter: (record, "") or (None, why)."""
    OUT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"rep-{workload}-", dir=OUT))
    out = scratch / "record.json"
    argv = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", str(int(traced)), "--out", str(out),
        "--scratch", str(scratch), *extra,
    ]
    if setup_only:
        argv.append("--setup-only")
    try:
        started = time.monotonic()
        proc = subprocess.Popen(
            argv + ["--t0", repr(started)],
            env=env if env is not None else _child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            _kill_group(proc.pid)
            proc.communicate()
            return None, f"timed out after {timeout:.0f}s"
        finally:
            # The repetition waits for its own workers; this only
            # removes anything it failed to stop.
            _kill_group(proc.pid)
        if proc.returncode != 0 or not out.exists():
            tail = err.strip().splitlines()[-1:] or [""]
            return None, f"exit {proc.returncode}: {tail[0]}"
        record = json.loads(out.read_text())
        record["elapsed_s"] = time.monotonic() - started
        return record, ""
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def check(workload: str, seed: int, reps: List[dict],
          crashed: List[str]) -> Tuple[int, int, List[str]]:
    """(attempted, failed, failures) over every repetition of a run.

    Digests are compared with the recorded ones for this seed, if any,
    else with each operation's first completed digest in the run.
    """
    import checks

    reference = checks.recorded_for(workload, seed)
    if reference is None:
        reference = {}
        for rep in reps:
            for op, value in rep["ops"].items():
                if value is not None:
                    reference.setdefault(op, value)
    attempted = failed = 0
    failures: List[str] = []
    for index, rep in enumerate(reps):
        bad = checks.failed_operations(rep["ops"], reference)
        bad += [f"leaked shm segment {name}"
                for name in rep.get("leaked_shm", ())]
        attempted += (len(set(rep["ops"]) | set(reference or ()))
                      + len(rep.get("leaked_shm", ())))
        failed += len(bad)
        failures += [f"rep {index}: {what}" for what in bad + rep["errors"]]
    for why in crashed:
        lost = len(reference) if reference else 1
        attempted += lost
        failed += lost
        failures.append(f"repetition failed: {why}")
    return attempted, failed, failures


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import host
    import inputs
    import metrics

    started = time.monotonic()
    deadline = started + seconds

    def remaining() -> float:
        return max(1.0, started + RUN_LIMIT_S - time.monotonic())

    provenance = host.provenance(_repro_env())
    reps: List[dict] = []
    crashed: List[str] = []
    elapsed: List[float] = []
    index = 0
    while index < MIN_REPS or (
        not crashed
        and time.monotonic() + statistics.median(elapsed) <= deadline
    ):
        traced = trace and index % 2 == 1
        rep_started = time.monotonic()
        record, why = run_rep(workload, seed, traced, timeout=remaining())
        elapsed.append(time.monotonic() - rep_started)
        if record is None:
            crashed.append(why)
        else:
            reps.append(record)
        index += 1
    untraced = [rep for rep in reps if not rep["traced"]]
    traced_reps = [rep for rep in reps if rep["traced"]]
    setup_samples = [rep["setup_s"] for rep in untraced]
    # Probes are skipped once half the run limit is spent.
    while (not trace and untraced and len(setup_samples) < SETUP_SAMPLES
           and time.monotonic() < started + RUN_LIMIT_S / 2):
        record, why = run_rep(workload, seed, False, setup_only=True,
                              timeout=remaining())
        if record is None:
            crashed.append(why)
            break
        setup_samples.append(record["setup_s"])

    if not untraced or (trace and not traced_reps):
        raise RuntimeError(
            f"no usable repetition of {workload}: {'; '.join(crashed)}"
        )
    attempted, failed, failures = check(workload, seed, reps, crashed)
    if trace:
        values = metrics.per_layer(traced_reps, untraced)
        units = {name: unit for name, unit, _ in metrics.PER_LAYER}
    else:
        values = metrics.end_to_end(untraced, setup_samples)
        units = {name: unit for name, unit, _ in metrics.END_TO_END}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    document = {
        "kind": "perfbench-run",
        "schema_version": 1,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": provenance,
        "inputs": asdict(inputs.draw(workload, seed)),
        "repetitions": reps,
        "setup_samples": setup_samples,
        "failures": failures,
        "result": result,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"run-{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(document, indent=1) + "\n")
    _summary(workload, seed, reps, result, failures, path)
    return result


def _summary(workload, seed, reps, result, failures, path) -> None:
    print(f"{workload} seed {seed}: {len(reps)} repetitions, "
          f"{result['failed']}/{result['attempted']} operations failed",
          file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:14.4f} {metric['unit']}",
              file=sys.stderr)
    for line in failures[:10]:
        print(f"  FAILED {line}", file=sys.stderr)
    print(f"  document: {path}", file=sys.stderr)


def record_digests() -> int:
    import checks
    from inputs import WORKLOADS

    recorded = checks.load_recorded()
    for workload in WORKLOADS:
        for seed in checks.RECORDED_SEEDS:
            record, why = run_rep(workload, seed, False)
            if record is None or record["errors"] or record.get(
                "leaked_shm"
            ) or any(value is None for value in record["ops"].values()):
                print(f"perfbench: cannot record {workload} seed {seed}: "
                      f"{why or (record or {}).get('errors')}",
                      file=sys.stderr)
                return 1
            recorded.setdefault(workload, {})[str(seed)] = record["ops"]
            print(f"recorded {len(record['ops'])} digests of {workload} "
                  f"seed {seed}", file=sys.stderr)
    checks.save_recorded(recorded)
    return 0


def attribute(workloads: List[str], seed: int) -> int:
    """Per-layer seconds with each fast path forced to its reference."""
    import checks
    import host
    import metrics

    table: Dict[str, Dict[str, dict]] = {}
    lines = []
    for workload in workloads:
        runs: Dict[str, List[dict]] = {name: [] for name, _, _ in VARIANTS}
        # Variants take turns, so a drift in host speed hits them alike.
        for _ in range(ATTRIBUTION_REPS):
            for variant, overrides, extra in VARIANTS:
                record, why = run_rep(workload, seed, True,
                                      env=_child_env(overrides),
                                      extra=extra)
                if record is None:
                    print(f"perfbench: {workload} {variant}: {why}",
                          file=sys.stderr)
                    return 1
                runs[variant].append(record)
        baseline_ops = runs["default"][0]["ops"]
        table[workload] = {}
        for variant, records in runs.items():
            each = [metrics.layer_values(record) for record in records]
            row = {name: statistics.median(v[name] for v in each)
                   for name in ATTRIBUTED}
            row["wall_s"] = statistics.median(r["wall_s"] for r in records)
            # A reference path must reproduce the fast path's outputs.
            row["digest_mismatches"] = sum(
                len(checks.failed_operations(record["ops"], baseline_ops))
                for record in records
            )
            table[workload][variant] = row
        lines += _attribution_table(workload, table[workload])
    for variant, why in UNMEASURED.items():
        lines.append(f"{variant}: unmeasured ({why})")
    print("\n".join(lines))
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "attribution.json").write_text(json.dumps({
        "kind": "perfbench-attribution",
        "schema_version": 1,
        "seed": seed,
        "reps": ATTRIBUTION_REPS,
        "provenance": host.provenance(_repro_env()),
        "variants": table,
        "unmeasured": UNMEASURED,
    }, indent=1) + "\n")
    return 0


def _attribution_table(workload: str, rows: Dict[str, dict]) -> List[str]:
    variants = list(rows)
    lines = [f"\n{workload}: per-layer values (x = variant / default)",
             f"{'':30s}" + "".join(f"{v:>20s}" for v in variants)]
    for name in ("wall_s",) + ATTRIBUTED:
        base = rows["default"][name]
        cells = []
        for variant in variants:
            value = rows[variant][name]
            ratio = f"x{value / base:.2f}" if base else "-"
            cells.append(f"{value:11.3f} {ratio:>7s}")
        lines.append(f"{name:30s}" + "".join(f"{c:>20s}" for c in cells))
    lines.append(f"{'digest mismatches':30s}" + "".join(
        f"{rows[v]['digest_mismatches']:>20d}" for v in variants))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Layer-by-layer benchmark (see the module docstring)."
    )
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--attribute", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}",
              file=sys.stderr)
        return 2
    from checks import DEFAULT_SEED
    from inputs import WORKLOADS

    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.record_digests:
        return record_digests()
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.attribute:
        chosen = [args.workload] if args.workload else list(WORKLOADS)
        return attribute(chosen, seed)
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result = measure(args.workload, seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
