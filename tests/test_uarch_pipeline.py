"""Tests for the out-of-order timing model."""

import pytest

from repro.uarch.config import table2_config
from repro.uarch.pipeline import simulate

from tests.trace_records import records


@pytest.fixture(scope="module")
def crafty(crafty_trace):
    return crafty_trace


class TestBasicSanity:
    def test_cycles_positive_and_bounded(self, crafty):
        stats = simulate(crafty, table2_config(16))
        assert 0 < stats.cycles
        # IPC cannot exceed the commit width.
        assert stats.ipc <= 16
        assert stats.instructions == len(crafty)

    def test_deterministic(self, gzip_trace):
        first = simulate(gzip_trace, table2_config(8))
        second = simulate(gzip_trace, table2_config(8))
        assert first.cycles == second.cycles

    def test_wider_machines_are_not_slower(self, crafty):
        cycles = [
            simulate(crafty, table2_config(width)).cycles
            for width in (4, 8, 16)
        ]
        assert cycles[0] >= cycles[1] >= cycles[2]

    def test_ipc_bounded_by_width(self, crafty):
        for width in (4, 8):
            stats = simulate(crafty, table2_config(width))
            assert stats.ipc <= width

    def test_counts_loads_stores_branches(self, crafty):
        stats = simulate(crafty, table2_config(16))
        assert stats.loads == sum(1 for r in records(crafty) if r.is_load)
        assert stats.stores == sum(1 for r in records(crafty) if r.is_store)
        assert stats.branches == sum(
            1 for r in records(crafty) if r.is_branch
        )


class TestStructuralHazards:
    def test_smaller_ruu_not_faster(self, crafty):
        big = simulate(crafty, table2_config(16))
        small = simulate(crafty, table2_config(16, ruu_size=16))
        assert small.cycles >= big.cycles

    def test_fewer_dl1_ports_not_faster(self, crafty):
        two = simulate(crafty, table2_config(16, dl1_ports=2))
        one = simulate(crafty, table2_config(16, dl1_ports=1))
        assert one.cycles >= two.cycles

    def test_tiny_ifq_throttles_fetch(self, gzip_trace):
        normal = simulate(gzip_trace, table2_config(16))
        tiny = simulate(gzip_trace, table2_config(16, ifq_size=2))
        assert tiny.cycles >= normal.cycles


class TestBranchPrediction:
    def test_gshare_not_faster_than_perfect(self, crafty):
        perfect = simulate(crafty, table2_config(16))
        gshare = simulate(
            crafty, table2_config(16, branch_predictor="gshare")
        )
        assert gshare.cycles >= perfect.cycles
        assert gshare.mispredictions > 0
        assert perfect.mispredictions == 0


class TestSVFModes:
    def test_ideal_mode_fastest(self, crafty):
        base = table2_config(16)
        baseline = simulate(crafty, base)
        ideal = simulate(crafty, base.with_svf(mode="ideal"))
        svf = simulate(crafty, base.with_svf(mode="svf", ports=2))
        assert ideal.cycles <= svf.cycles
        assert ideal.cycles <= baseline.cycles

    def test_svf_counts_reference_types(self, eon_trace):
        base = table2_config(16)
        stats = simulate(eon_trace, base.with_svf(mode="svf", ports=2))
        assert stats.svf_fast_loads > 0
        assert stats.svf_fast_stores > 0
        assert stats.svf_rerouted > 0  # eon's gpr-heavy accesses

    def test_sp_dominated_workload_mostly_morphs(self, crafty):
        """Paper Figure 8: ~86% of stack refs morph in the front-end."""
        base = table2_config(16)
        stats = simulate(crafty, base.with_svf(mode="svf", ports=2))
        assert stats.svf_fast_fraction > 0.7

    def test_more_svf_ports_not_slower(self, crafty):
        base = table2_config(16)
        cycles = [
            simulate(crafty, base.with_svf(mode="svf", ports=p)).cycles
            for p in (1, 2, 16)
        ]
        assert cycles[0] >= cycles[1] >= cycles[2]

    def test_no_squash_not_slower(self, eon_trace):
        base = table2_config(16)
        with_squash = simulate(
            eon_trace, base.with_svf(mode="svf", ports=2)
        )
        without = simulate(
            eon_trace, base.with_svf(mode="svf", ports=2, no_squash=True)
        )
        assert with_squash.svf_squashes > 0
        assert without.svf_squashes == 0
        assert without.cycles <= with_squash.cycles

    def test_stack_cache_mode_counts_hits(self, crafty):
        base = table2_config(16)
        stats = simulate(
            crafty, base.with_svf(mode="stack_cache", ports=2)
        )
        assert stats.stack_cache_hits > 0

    def test_svf_offloads_dl1(self, crafty):
        """Stack refs leave the DL1 entirely (paper Section 5.1)."""
        base = table2_config(16)
        baseline = simulate(crafty, base)
        svf = simulate(crafty, base.with_svf(mode="svf", ports=2))
        assert svf.dl1_accesses < baseline.dl1_accesses

    def test_no_addr_calc_helps_little_out_of_order(self, crafty):
        """Paper Figure 6: address-calc removal alone gains ~3%."""
        base = table2_config(16)
        baseline = simulate(crafty, base)
        relaxed = simulate(crafty, base.with_(no_addr_calc=True))
        assert relaxed.cycles <= baseline.cycles
        gain = baseline.cycles / relaxed.cycles
        assert gain < 1.25


class TestDeepPipelines:
    def test_agu_depth_slows_baseline(self, crafty):
        shallow = simulate(crafty, table2_config(16, agu_depth=0))
        deep = simulate(crafty, table2_config(16, agu_depth=8))
        assert deep.cycles > shallow.cycles

    def test_svf_value_grows_with_agu_depth(self, crafty):
        """Paper Section 7: deeper pipelines amplify the SVF's gain."""
        gains = []
        for depth in (0, 8):
            base = table2_config(16, agu_depth=depth)
            baseline = simulate(crafty, base)
            svf = simulate(crafty, base.with_svf(mode="svf", ports=2))
            gains.append(svf.speedup_over(baseline))
        assert gains[1] > gains[0]

    def test_morphed_refs_skip_agu_stages(self, crafty):
        """In ideal mode every stack ref morphs; with few non-stack
        refs the deep-AGU penalty mostly disappears."""
        base = table2_config(16, agu_depth=8)
        ideal = simulate(crafty, base.with_svf(mode="ideal"))
        baseline = simulate(crafty, base)
        assert ideal.cycles < baseline.cycles


class TestBanking:
    def test_banks_beat_one_true_port(self, crafty):
        base = table2_config(16)
        one_port = simulate(crafty, base.with_svf(mode="svf", ports=1))
        banked = simulate(
            crafty, base.with_svf(mode="svf", ports=1, banks=4)
        )
        assert banked.cycles < one_port.cycles

    def test_more_banks_not_slower(self, crafty):
        base = table2_config(16)
        cycles = [
            simulate(
                crafty, base.with_svf(mode="svf", ports=1, banks=b)
            ).cycles
            for b in (2, 4, 8)
        ]
        assert cycles[0] >= cycles[1] >= cycles[2]

    def test_banking_is_deterministic(self, gzip_trace):
        base = table2_config(16)
        config = base.with_svf(mode="svf", ports=1, banks=4)
        assert (
            simulate(gzip_trace, config).cycles
            == simulate(gzip_trace, config).cycles
        )


class TestAdaptiveDisable:
    def test_disables_under_squash_storm(self, eon_trace):
        base = table2_config(16)
        adaptive = simulate(
            eon_trace, base.with_svf(mode="svf", ports=2, adaptive=True)
        )
        plain = simulate(eon_trace, base.with_svf(mode="svf", ports=2))
        assert adaptive.extras.get("svf_disables", 0) > 0
        assert adaptive.svf_squashes < plain.svf_squashes
        assert adaptive.cycles <= plain.cycles

    def test_no_trigger_without_squashes(self, crafty):
        base = table2_config(16)
        adaptive = simulate(
            crafty, base.with_svf(mode="svf", ports=2, adaptive=True)
        )
        plain = simulate(crafty, base.with_svf(mode="svf", ports=2))
        assert adaptive.extras.get("svf_disables", 0) == 0
        assert adaptive.cycles == plain.cycles


class TestPaperShapes:
    def test_ideal_speedup_grows_with_width(self, crafty):
        """Paper Figure 5: 11% / 19% / 31% for 4/8/16-wide."""
        speedups = []
        for width in (4, 16):
            base = table2_config(width)
            baseline = simulate(crafty, base)
            ideal = simulate(crafty, base.with_svf(mode="ideal"))
            speedups.append(ideal.speedup_over(baseline))
        assert speedups[1] > speedups[0] > 1.0

    def test_doubling_l1_gains_nothing(self, crafty):
        """Paper Figure 6: 2x DL1 size is negligible."""
        base = table2_config(16)
        from repro.uarch.config import CacheConfig

        doubled = base.with_(
            dl1=CacheConfig(size=128 * 1024, assoc=4, latency=3)
        )
        baseline = simulate(crafty, base)
        bigger = simulate(crafty, doubled)
        assert abs(bigger.cycles - baseline.cycles) / baseline.cycles < 0.02

    def test_speedup_requires_same_window(self, crafty, gzip_trace):
        first = simulate(crafty, table2_config(16))
        second = simulate(gzip_trace[:100], table2_config(16))
        with pytest.raises(ValueError):
            second.speedup_over(first)
