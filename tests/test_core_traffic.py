"""Unit tests for the Table 3/4 traffic simulation."""

from repro.core.traffic import (
    TrafficSimulator,
    simulate_traffic,
    traffic_size_sweep,
)

from tests.trace_records import records


class TestOnRealTraces:
    def test_svf_traffic_below_stack_cache(self, crafty_trace):
        result = simulate_traffic(crafty_trace, capacity_bytes=8192)
        total_svf = result.svf_qw_in + result.svf_qw_out
        total_cache = result.stack_cache_qw_in + result.stack_cache_qw_out
        assert total_svf <= total_cache
        assert result.stack_references > 0

    def test_traffic_shrinks_with_capacity(self, crafty_trace):
        sweep = traffic_size_sweep(crafty_trace, sizes=(2048, 4096, 8192))
        cache_in = [r.stack_cache_qw_in for r in sweep]
        assert cache_in[0] >= cache_in[1] >= cache_in[2]
        svf_total = [r.svf_qw_in + r.svf_qw_out for r in sweep]
        assert svf_total[0] >= svf_total[2]

    def test_flat_workload_has_negligible_traffic(self, gzip_trace):
        result = simulate_traffic(gzip_trace, capacity_bytes=8192)
        # gzip's frame is tiny: beyond compulsory fills, nothing moves.
        assert result.svf_qw_in + result.svf_qw_out < 50

    def test_instruction_and_reference_counts(self, gzip_trace):
        result = simulate_traffic(gzip_trace)
        assert result.instructions == len(gzip_trace)
        mem_stack = sum(
            1 for r in records(gzip_trace)
            if (r.is_load or r.is_store) and r.addr >= 0x40000000
        )
        assert result.stack_references == mem_stack


class TestContextSwitchAccounting:
    def test_switch_counts(self, crafty_trace):
        result = simulate_traffic(
            crafty_trace, context_switch_period=5_000
        )
        assert result.context_switches == len(crafty_trace) // 5_000
        assert result.svf_switch_bytes_avg <= (
            result.stack_cache_switch_bytes_avg + 1e-9
        ) or result.stack_cache_switch_bytes_avg >= 0

    def test_svf_flushes_less_than_stack_cache(self, crafty_trace):
        """Table 4: SVF writes back 3-20x less per switch."""
        result = simulate_traffic(
            crafty_trace, context_switch_period=5_000
        )
        assert result.context_switches > 0
        assert (
            result.svf_switch_bytes_avg
            <= result.stack_cache_switch_bytes_avg
        )

    def test_no_period_means_no_switches(self, gzip_trace):
        result = simulate_traffic(gzip_trace)
        assert result.context_switches == 0
        assert result.svf_switch_bytes_avg == 0.0


class TestStreamingProtocol:
    def test_incremental_equals_batch(self, gzip_trace):
        simulator = TrafficSimulator(capacity_bytes=4096)
        total = len(gzip_trace)
        for lo in range(0, total, 999):
            simulator.consume_columns(gzip_trace, lo, min(lo + 999, total))
        incremental = simulator.result()
        batch = simulate_traffic(gzip_trace, capacity_bytes=4096)
        assert incremental.svf_qw_in == batch.svf_qw_in
        assert incremental.svf_qw_out == batch.svf_qw_out
        assert incremental.stack_cache_qw_in == batch.stack_cache_qw_in
        assert incremental.stack_cache_qw_out == batch.stack_cache_qw_out
