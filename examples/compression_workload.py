#!/usr/bin/env python
"""Write your own workload in MiniC and study its stack behaviour.

The paper's analysis starts from workload characterization (Figures
1-3).  This example shows the full flow on a *custom* program — a
run-length compressor you could have written yourself — instead of the
built-in suite:

1. compile MiniC source with the bundled compiler;
2. execute it into a columnar trace and feed that to the Figure-1/2/3
   analyses;
3. print the access-method distribution, stack-depth curve and offset
   locality;
4. check how an 8 KB SVF would have treated its stack traffic.

Run:  python examples/compression_workload.py
"""

from repro.core import simulate_traffic
from repro.emulator import Machine, STACK_BASE
from repro.lang import compile_program
from repro.trace import (
    AccessDistribution,
    AccessMethod,
    ColumnarTrace,
    OffsetLocality,
    StackDepthProfile,
    consume_trace,
)

SOURCE = """
int history[256];

int compress_block(int *data, int n, int *out) {
    int run_table[32];
    for (int i = 0; i < 32; i += 1) { run_table[i] = 0; }
    int out_count = 0;
    int i = 0;
    while (i < n) {
        int value = data[i];
        int run = 1;
        while (i + run < n && data[i + run] == value) { run += 1; }
        out[out_count] = value;
        out[out_count + 1] = run;
        out_count += 2;
        run_table[run & 31] += 1;
        history[value & 255] += run;
        i += run;
    }
    int entropy = 0;
    for (int i = 0; i < 32; i += 1) { entropy += run_table[i] * i; }
    return out_count + (entropy & 7);
}

int main() {
    int block[96];
    int packed[192];
    int state = 12345;
    int total = 0;
    for (int round_id = 0; round_id < 12; round_id += 1) {
        for (int i = 0; i < 96; i += 1) {
            state = (state * 1103515245 + 12345) & 2147483647;
            block[i] = (state >> 9) & 7;
        }
        total += compress_block(&block[0], 96, &packed[0]);
    }
    print(total);
    return 0;
}
"""


def main() -> None:
    program = compile_program(SOURCE)
    print(f"compiled: {len(program.instructions)} static instructions")

    trace = ColumnarTrace()
    machine = Machine(program)
    machine.run(trace_sink=trace)
    distribution = AccessDistribution()
    depth = StackDepthProfile(stack_base=STACK_BASE)
    locality = OffsetLocality()
    consume_trace(trace, (distribution, depth, locality))
    print(f"executed: {machine.instruction_count:,} instructions, "
          f"output = {machine.output}")

    print("\n-- Figure 1 style: access distribution --")
    print(f"memory refs / instruction : {distribution.memory_fraction:.2f}")
    for method in AccessMethod:
        fraction = distribution.fraction(method)
        if fraction > 0:
            print(f"  {method.value:10s}: {fraction:.2f}")

    print("\n-- Figure 2 style: stack depth --")
    low, high = depth.stable_range()
    print(f"max depth : {depth.max_depth} quad-words "
          f"({depth.max_depth * 8} bytes)")
    print(f"stable band after init: [{low}, {high}] quad-words")

    print("\n-- Figure 3 style: offset locality --")
    print(f"average offset from TOS : {locality.average_offset:.1f} bytes")
    print(f"within 300 B of TOS     : "
          f"{100 * locality.fraction_within(300):.1f}%")
    print(f"beyond TOS              : {locality.beyond_tos}")

    print("\n-- SVF vs stack cache traffic (8 KB) --")
    traffic = simulate_traffic(trace, capacity_bytes=8192)
    print(f"stack cache : {traffic.stack_cache_qw_in:,} QW in / "
          f"{traffic.stack_cache_qw_out:,} QW out")
    print(f"SVF         : {traffic.svf_qw_in:,} QW in / "
          f"{traffic.svf_qw_out:,} QW out")


if __name__ == "__main__":
    main()
