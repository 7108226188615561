"""Figure 7 — SVF vs decoupled stack cache vs widened baseline.

Paper shape: the (2+2) SVF outperforms the (2+2) stack cache on
average (~9%, 14% with no_squash), with eon the exception unless the
no_squash code-generation option removes its gpr-store/sp-load
collisions; 253.perlbmk is the stack-cache anomaly (its stack working
set misses in an 8 KB stack cache).
"""

from repro.harness import fig7_svf_vs_stack_cache


def test_fig7(benchmark, emit, timing_window):
    result = benchmark.pedantic(
        lambda: fig7_svf_vs_stack_cache(max_instructions=timing_window),
        rounds=1,
        iterations=1,
    )
    emit("fig7_svf_vs_stackcache", result.render())

    averages = result.averages()
    # SVF beats the stack cache on average; no_squash widens the gap.
    assert averages["(2+2)svf_nosq"] > averages["(2+2)$"]
    assert averages["(2+2)svf_nosq"] >= averages["(2+2)svf"]

    # eon: squashes make plain SVF lose; no_squash recovers it.
    eon = result.speedups["252.eon"]
    assert eon["(2+2)svf_nosq"] > eon["(2+2)svf"]
    assert result.svf_stats["252.eon"].svf_squashes > 0
