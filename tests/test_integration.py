"""Integration tests: the paper's qualitative claims, end to end.

These run a representative subset of the suite on short windows and
assert the *shapes* the paper reports — who wins, in which direction,
and by roughly what kind of factor.  The full-scale numbers live in
the benchmark harness (benchmarks/) and EXPERIMENTS.md.
"""

import pytest

from repro.core.traffic import simulate_traffic
from repro.emulator.memory import STACK_BASE
from repro.trace.analysis import AccessDistribution, OffsetLocality, \
    StackDepthProfile
from repro.uarch.config import table2_config
from repro.uarch.pipeline import simulate
from repro.workloads import workload

WINDOW = 40_000
SUITE = ["186.crafty", "176.gcc", "164.gzip", "300.twolf"]


@pytest.fixture(scope="module")
def traces():
    return {
        name: workload(name).trace(max_instructions=WINDOW)
        for name in SUITE
    }


class TestSection2Claims:
    """Stack-reference characterization (paper Section 2)."""

    def test_stack_references_are_majority_of_memory_accesses(self, traces):
        fractions = []
        for trace in traces.values():
            dist = AccessDistribution()
            dist.consume_columns(trace)
            fractions.append(dist.stack_fraction)
        assert sum(fractions) / len(fractions) > 0.5

    def test_sp_relative_is_dominant_access_method(self, traces):
        fractions = []
        for trace in traces.values():
            dist = AccessDistribution()
            dist.consume_columns(trace)
            fractions.append(dist.sp_fraction_of_stack)
        assert sum(fractions) / len(fractions) > 0.6

    def test_stack_depth_bounded_by_1000_units_for_most(self, traces):
        """Paper Figure 2: a 1000-unit (8KB) window covers most apps."""
        within = 0
        for trace in traces.values():
            profile = StackDepthProfile(stack_base=STACK_BASE)
            profile.consume_columns(trace)
            if profile.max_depth <= 1100:
                within += 1
        assert within >= len(traces) - 1

    def test_references_cluster_near_tos(self, traces):
        """Paper Figure 3: >99% of references within 8KB of TOS."""
        for name, trace in traces.items():
            locality = OffsetLocality()
            locality.consume_columns(trace)
            assert locality.fraction_within(8192) > 0.95, name
            assert locality.beyond_tos == 0, name


class TestSection5Performance:
    """Performance claims (paper Section 5)."""

    def test_ideal_morphing_speeds_up_every_benchmark(self, traces):
        """Figure 5 direction: morphing always helps, more when wide."""
        for name, trace in traces.items():
            base = table2_config(16)
            baseline = simulate(trace, base)
            ideal = simulate(trace, base.with_svf(mode="ideal"))
            assert ideal.speedup_over(baseline) > 1.0, name

    def test_svf_beats_stack_cache_on_average(self, traces):
        """Figure 7: SVF (2+2) > stack cache (2+2), ~9% on average."""
        svf_speedups = []
        cache_speedups = []
        base = table2_config(16, dl1_ports=2)
        for trace in traces.values():
            baseline = simulate(trace, base)
            svf = simulate(trace, base.with_svf(mode="svf", ports=2))
            cache = simulate(
                trace, base.with_svf(mode="stack_cache", ports=2)
            )
            svf_speedups.append(svf.speedup_over(baseline))
            cache_speedups.append(cache.speedup_over(baseline))
        assert (
            sum(svf_speedups) / len(svf_speedups)
            > sum(cache_speedups) / len(cache_speedups)
        )

    def test_single_ported_design_gains_most(self, traces):
        """Figure 9: (1+1) over (1+0) is the headline win (~50%)."""
        gains = []
        for trace in traces.values():
            base = table2_config(16, dl1_ports=1)
            baseline = simulate(trace, base)
            svf = simulate(trace, base.with_svf(mode="svf", ports=1))
            gains.append(svf.speedup_over(baseline))
        assert sum(gains) / len(gains) > 1.1

    def test_dual_ported_design_still_gains(self, traces):
        """Figure 9: (2+2) over (2+0) averages ~24% in the paper."""
        gains = []
        for trace in traces.values():
            base = table2_config(16, dl1_ports=2)
            baseline = simulate(trace, base)
            svf = simulate(trace, base.with_svf(mode="svf", ports=2))
            gains.append(svf.speedup_over(baseline))
        assert sum(gains) / len(gains) > 1.0


class TestSection5Traffic:
    """Memory-traffic claims (paper Section 5.3.2/5.3.3)."""

    def test_svf_traffic_orders_of_magnitude_below_stack_cache(self):
        """Table 3's headline: SVF reduces overhead traffic massively."""
        total_svf = 0
        total_cache = 0
        for name in SUITE + ["253.perlbmk", "252.eon"]:
            trace = workload(name).trace(max_instructions=WINDOW)
            result = simulate_traffic(trace, capacity_bytes=2048)
            total_svf += result.svf_qw_in + result.svf_qw_out
            total_cache += (
                result.stack_cache_qw_in + result.stack_cache_qw_out
            )
        assert total_cache > 3 * total_svf

    def test_traffic_vanishes_at_8kb_for_well_sized_workloads(self):
        trace = workload("300.twolf").trace(max_instructions=WINDOW)
        small = simulate_traffic(trace, capacity_bytes=2048)
        large = simulate_traffic(trace, capacity_bytes=8192)
        assert (
            large.svf_qw_in + large.svf_qw_out
            <= small.svf_qw_in + small.svf_qw_out
        )
        assert large.stack_cache_qw_in < small.stack_cache_qw_in

    def test_context_switch_traffic_smaller_for_svf(self):
        """Table 4: SVF writes back 3-20x less per switch."""
        ratios = []
        for name in SUITE:
            trace = workload(name).trace(max_instructions=WINDOW)
            result = simulate_traffic(
                trace, capacity_bytes=8192, context_switch_period=8_000
            )
            if result.stack_cache_switch_bytes_avg > 0:
                ratios.append(
                    result.stack_cache_switch_bytes_avg
                    / max(result.svf_switch_bytes_avg, 1e-9)
                )
        assert ratios and min(ratios) >= 1.0


class TestEonAnomaly:
    """The paper's eon story: squashes hurt, no_squash recovers."""

    def test_no_squash_recovers_eon(self):
        trace = workload("eon").trace(max_instructions=WINDOW)
        base = table2_config(16, dl1_ports=2)
        baseline = simulate(trace, base)
        squashy = simulate(trace, base.with_svf(mode="svf", ports=2))
        clean = simulate(
            trace, base.with_svf(mode="svf", ports=2, no_squash=True)
        )
        assert squashy.svf_squashes > 0
        assert clean.speedup_over(baseline) > squashy.speedup_over(baseline)


class TestPerlbmkAnomaly:
    """Figure 7's anomaly: perlbmk's stack set thrashes an 8KB cache."""

    def test_stack_cache_misses_dominate(self):
        trace = workload("perlbmk").trace(max_instructions=WINDOW)
        result = simulate_traffic(trace, capacity_bytes=8192)
        # Persistent traffic even at the largest size (Table 3 row).
        assert result.stack_cache_qw_in > 100
        assert result.svf_qw_in + result.svf_qw_out < (
            result.stack_cache_qw_in + result.stack_cache_qw_out
        )
