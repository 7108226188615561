#!/usr/bin/env python
"""Quickstart: measure the Stack Value File's speedup on one workload.

This walks the whole pipeline in ~30 lines:

1. pick a workload (the crafty-style game-tree search — the canonical
   deep-call-stack benchmark);
2. run it on the functional emulator to get a dynamic trace;
3. time the trace on the paper's 16-wide baseline machine (Table 2);
4. time it again with an 8 KB, dual-ported Stack Value File attached;
5. report the speedup and where it came from.

Run:  python examples/quickstart.py
"""

from repro.trace.columnar import FLAG_LOAD, FLAG_STORE
from repro.uarch import simulate, table2_config
from repro.workloads import workload


def main() -> None:
    work = workload("crafty")
    print(f"workload: {work.name} ({work.description})")

    trace = work.trace(max_instructions=60_000)
    references = sum(
        1 for flags in trace.flags if flags & (FLAG_LOAD | FLAG_STORE)
    )
    print(f"trace: {len(trace):,} instructions, "
          f"{references:,} memory references")

    baseline_config = table2_config(16, dl1_ports=2)
    svf_config = baseline_config.with_svf(
        mode="svf", capacity_bytes=8192, ports=2
    )

    baseline = simulate(trace, baseline_config)
    svf = simulate(trace, svf_config)

    print(f"\nbaseline : {baseline.cycles:,} cycles "
          f"(IPC {baseline.ipc:.2f})")
    print(f"with SVF : {svf.cycles:,} cycles (IPC {svf.ipc:.2f})")
    print(f"speedup  : {(svf.speedup_over(baseline) - 1) * 100:+.1f}%")

    morphed = svf.svf_fast_loads + svf.svf_fast_stores
    total = morphed + svf.svf_rerouted
    print(f"\nSVF behaviour: {morphed:,} references morphed into "
          f"register moves ({100 * svf.svf_fast_fraction:.0f}% of stack "
          f"references),")
    print(f"  {svf.svf_rerouted:,} re-routed after address calculation, "
          f"{svf.svf_fills:,} demand fills,")
    print(f"  DL1 traffic fell from {baseline.dl1_accesses:,} to "
          f"{svf.dl1_accesses:,} accesses.")
    assert total > 0


if __name__ == "__main__":
    main()
