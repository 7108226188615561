#!/usr/bin/env python
"""Record once, replay everywhere — plus the adaptive SVF controller.

Functional emulation is the slow part of the pipeline; the timing
model just replays.  This example records a trace to disk, then sweeps
machine configurations against the recorded file — the workflow for
exploring many designs against one workload.  It closes with the
dynamic-disable controller of Section 3.3 rescuing eon from its squash
storms without recompilation.

Run:  python examples/trace_replay_adaptive.py
"""

import os
import tempfile

from repro.harness import percent, render_table
from repro.trace import load_trace, save_trace
from repro.uarch import simulate, table2_config
from repro.workloads import workload

WINDOW = 40_000


def record(work, path):
    count = save_trace(work.trace(max_instructions=WINDOW), path)
    size_kb = os.path.getsize(path) / 1024
    print(f"recorded {count:,} instructions of {work.full_name} "
          f"to {os.path.basename(path)} ({size_kb:.0f} KiB)")


def sweep(trace):
    base = table2_config(16)
    baseline = simulate(trace, base)
    rows = []
    for label, config in (
        ("stack cache (2+2)", base.with_svf(mode="stack_cache", ports=2)),
        ("SVF (2+1)", base.with_svf(mode="svf", ports=1)),
        ("SVF (2+2)", base.with_svf(mode="svf", ports=2)),
        ("SVF (2+2) adaptive", base.with_svf(mode="svf", ports=2,
                                             adaptive=True)),
        ("SVF (2+2) no_squash", base.with_svf(mode="svf", ports=2,
                                              no_squash=True)),
    ):
        stats = simulate(trace, config)
        rows.append(
            (
                label,
                f"{stats.ipc:.2f}",
                percent(stats.speedup_over(baseline)),
                stats.svf_squashes,
                stats.extras.get("svf_disables", ""),
            )
        )
    return baseline, rows


def main() -> None:
    work = workload("eon")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "eon.svft")
        record(work, path)
        trace = load_trace(path)
        baseline, rows = sweep(trace)
    print(f"\nbaseline: IPC {baseline.ipc:.2f}\n")
    print(render_table(
        ["Configuration", "IPC", "speedup", "squashes", "disables"],
        rows,
        title=f"{work.full_name}: configuration sweep over one "
        "recorded trace",
    ))
    print(
        "\nThe adaptive controller (Section 3.3) detects eon's "
        "gpr-store/sp-load squash\nstorms at run time and routes stack "
        "references back to the DL1 for a cooling\nperiod — recovering "
        "most of what the no_squash recompilation buys, with no\n"
        "compiler involvement."
    )


if __name__ == "__main__":
    main()
