"""Chaos-hardening regression tests: the failure-semantics contract.

Each class pins one bug the chaos harness exposed in the engine/cache
stack, plus the harness's own determinism guarantees:

* a hung cell can no longer hold a pool slot hostage (the worker is
  killed at its deadline and the slot recycled);
* ``task_timeout`` is a per-attempt deadline measured from submission,
  and ``elapsed`` reports real wall time, never a fabricated constant;
* a SIGKILLed worker degrades one attempt, not the whole run, and no
  worker process outlives ``run_cells``;
* cell-cache entries are named by a digest of the whole cell key, so
  two distinct cells can never serve each other's payloads;
* a transient read error never unlinks a valid cache entry, while
  genuine corruption (including a single flipped bit in a checksummed
  trace) always drops the entry and never serves it;
* two reports racing on one cache directory stay byte-identical.
"""

from __future__ import annotations

import errno
import os
import pickle
import tempfile
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.harness import chaos
from repro.harness import parallel as parallel_module
from repro.harness.chaos import (
    ChaosFault,
    ChaosKill,
    FaultPlan,
    FaultRule,
    cell_key,
    check_output_invariant,
    inject_cache_faults,
)
from repro.harness.parallel import (
    EngineOptions,
    TaskCell,
    TraceCache,
    last_engine_report,
    run_cells,
)
from repro.harness.runall import _plan_cells, generate_report
from repro.profiling import profiled
from repro.workloads import workload


def _timing_cell(benchmark: str) -> TaskCell:
    """The timing cell a report plans for ``benchmark`` at 1k windows."""
    cells = _plan_cells([benchmark], 1_000, 1_000, 1_000)
    return next(cell for cell in cells if cell.section == "timing")


FAST = _timing_cell("164.gzip")
OTHER = _timing_cell("181.mcf")


def _pid_gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except OSError:
        return False
    return False


def _assert_no_orphans():
    report = last_engine_report()
    assert report is not None
    for pid in report.worker_pids:
        assert _pid_gone(pid), f"worker {pid} outlived the run"


# ---------------------------------------------------------------------------
# Fault plans: determinism, the claim ledger, validation
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_rules_validate(self):
        with pytest.raises(ValueError, match="fault kind"):
            FaultRule("explode")
        with pytest.raises(ValueError, match="times"):
            FaultRule("kill", times=0)
        with pytest.raises(ValueError, match="probability"):
            FaultRule("kill", probability=1.5)

    def test_plan_is_picklable(self):
        plan = FaultPlan(seed=3, rules=(FaultRule("kill", match="x"),))
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_cell_key_bakes_in_window_and_params(self):
        a = TaskCell("table4", "164.gzip", 1_000, (("period", 3200),))
        b = TaskCell("table4", "164.gzip", 2_000, (("period", 3200),))
        c = TaskCell("table4", "164.gzip", 1_000, (("period", 6400),))
        assert len({cell_key(a), cell_key(b), cell_key(c)}) == 3

    def test_disk_ledger_claims_exactly_once(self, tmp_path):
        plan = FaultPlan(seed=0, ledger_dir=str(tmp_path))
        assert chaos._claim(plan, 0, "cell-a", times=1)
        assert not chaos._claim(plan, 0, "cell-a", times=1)
        # A different (rule, cell) pair has its own budget.
        assert chaos._claim(plan, 1, "cell-a", times=1)
        assert chaos._claim(plan, 0, "cell-b", times=1)

    def test_disk_ledger_survives_reinstantiation(self, tmp_path):
        # A SIGKILLed worker's claim must persist: the retry (in a new
        # process, here simulated by a fresh plan object) runs clean.
        first = FaultPlan(seed=0, ledger_dir=str(tmp_path))
        assert chaos._claim(first, 0, "cell-a", times=1)
        second = FaultPlan(seed=0, ledger_dir=str(tmp_path))
        assert not chaos._claim(second, 0, "cell-a", times=1)

    def test_memory_ledger_fallback(self):
        chaos._MEMORY_LEDGER.clear()
        plan = FaultPlan(seed=0)
        assert chaos._claim(plan, 0, "cell-a", times=2)
        assert chaos._claim(plan, 0, "cell-a", times=2)
        assert not chaos._claim(plan, 0, "cell-a", times=2)

    def test_selection_is_scheduling_independent(self):
        plan = FaultPlan(seed=7)
        rule = FaultRule("fail", match="*", probability=0.5)
        picks = [
            chaos._selected(plan, 0, rule, f"cell-{i}") for i in range(64)
        ]
        assert picks == [
            chaos._selected(plan, 0, rule, f"cell-{i}") for i in range(64)
        ]
        assert any(picks) and not all(picks)

    def test_fail_fault_raises(self):
        chaos._MEMORY_LEDGER.clear()
        previous = chaos.install(FaultPlan(seed=0, rules=(
            FaultRule("fail", match=cell_key(FAST)),
        )))
        try:
            with pytest.raises(ChaosFault):
                chaos.on_cell_start(FAST)
            # times=1: the retry runs clean.
            chaos.on_cell_start(FAST)
        finally:
            chaos.install(previous)

    def test_kill_fault_simulated_inline(self):
        chaos._MEMORY_LEDGER.clear()
        previous = chaos.install(FaultPlan(seed=0, rules=(
            FaultRule("kill", match=cell_key(FAST)),
        )), simulate_kill=True)
        try:
            with pytest.raises(ChaosKill):
                chaos.on_cell_start(FAST)
        finally:
            chaos.install(previous)


# ---------------------------------------------------------------------------
# Cell keys: the cache-collision regression
# ---------------------------------------------------------------------------


class TestCellKeyCollision:
    def test_separator_values_no_longer_collide(self, tmp_path):
        # Under the old scheme both cells named the file
        # "s.b.w1.p-1.q-2.cell.pkl" and served each other's payloads.
        cache = TraceCache(str(tmp_path))
        sneaky = TaskCell("s", "b", 1, (("p", "1.q-2"),))
        honest = TaskCell("s", "b", 1, (("p", "1"), ("q", "2")))
        assert cache.cell_path_for(sneaky) != cache.cell_path_for(honest)
        cache.store_cell(sneaky, "sneaky-payload")
        assert cache.load_cell(honest) is parallel_module._MISS


# ---------------------------------------------------------------------------
# Corrupt vs transient reads: the over-eager-unlink regression
# ---------------------------------------------------------------------------


class TestCorruptVsTransient:
    CELL = TaskCell("s", "164.gzip", 500, (("k", "v"),))

    def test_corrupt_cell_entry_dropped_and_counted(self, tmp_path):
        cache = TraceCache(str(tmp_path))
        cache.store_cell(self.CELL, {"x": 1})
        cache.cell_path_for(self.CELL).write_bytes(b"garbage")
        with profiled() as profiler:
            assert cache.load_cell(self.CELL) is parallel_module._MISS
        assert not cache.cell_path_for(self.CELL).exists()
        assert profiler.counters.get("cache_corrupt_dropped") == 1
        assert "cache_transient_errors" not in profiler.counters

    def test_transient_error_preserves_the_entry(self, tmp_path,
                                                 monkeypatch):
        cache = TraceCache(str(tmp_path))
        cache.store_cell(self.CELL, {"x": 1})
        real_read = parallel_module.Path.read_bytes
        failures = iter([OSError(errno.EINTR, "interrupted")])

        def flaky(path):
            for exc in failures:
                raise exc
            return real_read(path)

        monkeypatch.setattr(parallel_module.Path, "read_bytes", flaky)
        with profiled() as profiler:
            assert cache.load_cell(self.CELL) is parallel_module._MISS
        assert cache.cell_path_for(self.CELL).exists()
        assert profiler.counters.get("cache_transient_errors") == 1
        assert "cache_corrupt_dropped" not in profiler.counters
        # The very next read serves the still-valid entry.
        assert cache.load_cell(self.CELL) == {"x": 1}

    def test_transient_trace_error_preserves_the_entry(self, tmp_path,
                                                       monkeypatch):
        key = ("164.gzip", "graphic", 0, 500)
        cache = TraceCache(str(tmp_path))
        cache.store(key, workload("gzip").trace(max_instructions=500))
        real_load = parallel_module.load_trace
        failures = iter([OSError(errno.EINTR, "interrupted")])

        def flaky(path):
            for exc in failures:
                raise exc
            return real_load(path)

        monkeypatch.setattr(parallel_module, "load_trace", flaky)
        with profiled() as profiler:
            assert cache.load(key) is None
        assert cache.path_for(key).exists()
        assert profiler.counters.get("cache_transient_errors") == 1
        assert len(cache.load(key)) == 500


@pytest.fixture(scope="module")
def stored_cell(tmp_path_factory):
    """(cache, cell, payload, entry bytes) for the damage property."""
    cache = TraceCache(str(tmp_path_factory.mktemp("cells")))
    cell = TaskCell("timing", "181.mcf", 1_500)
    payload = {"fig9": {"(2+2)": 1.25}, "rows": (3, "x", None)}
    cache.store_cell(cell, payload)
    return cache, cell, payload, cache.cell_path_for(cell).read_bytes()


_ENTRY_DAMAGE = st.one_of(
    st.tuples(st.just("truncate"), st.integers(min_value=0)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=64)),
    st.tuples(st.just("overwrite"), st.integers(min_value=0),
              st.integers(0, 255)),
)


def _damaged_entry(blob: bytes, damage) -> bytes:
    kind = damage[0]
    if kind == "truncate":
        return blob[: damage[1] % len(blob)]
    if kind == "extend":
        return blob + damage[1]
    _, offset, value = damage
    offset %= len(blob)
    return blob[:offset] + bytes([value]) + blob[offset + 1:]


@settings(max_examples=200, deadline=None)
@given(damage=_ENTRY_DAMAGE)
def test_damaged_cell_entry_loads_equal_or_misses(stored_cell, damage):
    # Any damage either leaves the payload intact (an overwrite with
    # the same byte) or is a corrupt miss that unlinks the entry --
    # load_cell never raises and never serves a wrong payload.
    cache, cell, payload, blob = stored_cell
    path = cache.cell_path_for(cell)
    path.write_bytes(_damaged_entry(blob, damage))
    with profiled() as profiler:
        loaded = cache.load_cell(cell)
    if loaded is parallel_module._MISS:
        assert not path.exists()
        assert profiler.counters == {
            "cache_corrupt_dropped": 1, "cell_cache_misses": 1,
        }
    else:
        assert loaded == payload
        assert profiler.counters == {"cell_cache_hits": 1}


class TestTraceChecksum:
    KEY = ("164.gzip", "graphic", 0, 500)

    def test_bitflip_in_trace_data_is_detected(self, tmp_path):
        from repro.trace.serialization import (
            TraceFormatError, load_trace, save_trace,
        )

        trace = workload("gzip").trace(max_instructions=500)
        path = tmp_path / "t.trace.bin"
        save_trace(trace, str(path))
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x10  # deep inside a data column
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="checksum"):
            load_trace(str(path))

    def test_cache_drops_bitflipped_trace(self, tmp_path):
        cache = TraceCache(str(tmp_path))
        cache.store(self.KEY, workload("gzip").trace(max_instructions=500))
        path = cache.path_for(self.KEY)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x10
        path.write_bytes(bytes(data))
        with profiled() as profiler:
            assert cache.load(self.KEY) is None
        assert not path.exists()
        assert profiler.counters.get("cache_corrupt_dropped") == 1


# ---------------------------------------------------------------------------
# Pool liveness and honest accounting under injected faults
# ---------------------------------------------------------------------------


class TestPoolUnderFaults:
    def test_hung_cell_does_not_hold_the_pool_hostage(self, tmp_path):
        # Old behaviour: the timed-out future was never cancelled, so
        # a 30s hang meant a 30s run minimum while the worker kept its
        # slot.  Now the worker is killed at its 2s deadline, and
        # again on the retry.
        plan = FaultPlan(seed=0, rules=(
            FaultRule("hang", match=cell_key(FAST), times=2, seconds=30.0),
        ), ledger_dir=str(tmp_path / "ledger"))
        started = time.monotonic()
        outcomes = run_cells(
            [FAST, OTHER],
            EngineOptions(jobs=2, task_timeout=2.0, fault_plan=plan,
                          cache_dir=str(tmp_path / "cache")),
        )
        wall = time.monotonic() - started
        assert wall < 20.0, f"pool stayed hostage for {wall:.1f}s"
        assert not outcomes[0].ok
        assert "timed out" in outcomes[0].error
        assert outcomes[1].ok  # the other slot kept working
        report = last_engine_report()
        assert report.timeouts == 2 and report.recycled >= 2
        _assert_no_orphans()

    def test_timeout_elapsed_is_real_wall_time(self, tmp_path):
        # Old behaviour reported elapsed == task_timeout verbatim even
        # when the collector had waited on earlier futures first.
        plan = FaultPlan(seed=0, rules=(
            FaultRule("hang", match=cell_key(FAST), times=2, seconds=30.0),
        ), ledger_dir=str(tmp_path / "ledger"))
        outcomes = run_cells(
            [FAST, OTHER],
            EngineOptions(jobs=2, task_timeout=2.0, fault_plan=plan,
                          cache_dir=str(tmp_path / "cache")),
        )
        assert last_engine_report().timeouts == 2
        hung = outcomes[0]
        assert hung.elapsed >= 2.0  # at least the deadline it blew
        assert hung.elapsed < 15.0  # and nowhere near the 30s hang
        # The co-scheduled fast cell's accounting is unaffected.
        assert outcomes[1].elapsed < 2.0

    def test_killed_worker_degrades_one_attempt_not_the_run(
            self, tmp_path):
        plan = FaultPlan(seed=0, rules=(
            FaultRule("kill", match=cell_key(FAST)),
        ), ledger_dir=str(tmp_path / "ledger"))
        outcomes = run_cells(
            [FAST, OTHER],
            EngineOptions(jobs=2, fault_plan=plan,
                          cache_dir=str(tmp_path / "cache")),
        )
        assert outcomes[0].ok  # retried on a fresh worker
        assert outcomes[0].attempts == 2
        assert outcomes[1].ok and outcomes[1].attempts == 1
        report = last_engine_report()
        assert report.broken >= 1 and report.recycled >= 1
        _assert_no_orphans()

    def test_inline_run_simulates_the_kill(self, tmp_path):
        plan = FaultPlan(seed=0, rules=(
            FaultRule("kill", match=cell_key(FAST)),
        ), ledger_dir=str(tmp_path / "ledger"))
        outcome = run_cells(
            [FAST],
            EngineOptions(jobs=1, fault_plan=plan),
        )[0]
        assert outcome.ok and outcome.attempts == 2
        assert chaos.active_plan() is None  # plan restored after the run

    def test_healthy_pool_leaves_no_orphans(self, tmp_path):
        outcomes = run_cells(
            [FAST, OTHER],
            EngineOptions(jobs=2, cache_dir=str(tmp_path)),
        )
        assert all(outcome.ok for outcome in outcomes)
        report = last_engine_report()
        assert report.recycled == 0 and len(report.worker_pids) >= 1
        _assert_no_orphans()


# ---------------------------------------------------------------------------
# Whole-report invariants: annotation, corruption, concurrency
# ---------------------------------------------------------------------------


WINDOWS = dict(timing_window=1_500, functional_window=1_500)


class TestReportUnderFaults:
    def test_exhausted_retries_render_an_annotated_gap(self, tmp_path):
        # times=2 outlives the single retry, so the cell must degrade
        # and the gap-annotation invariant must hold.
        victim = TaskCell("table3", "164.gzip", 1_500)
        plan = FaultPlan(seed=0, rules=(
            FaultRule("fail", match=cell_key(victim), times=2),
        ), ledger_dir=str(tmp_path / "ledger"))
        text = generate_report(
            benchmarks=["gzip"], jobs=2,
            cache_dir=str(tmp_path / "cache"), fault_plan=plan,
            **WINDOWS,
        )
        assert "(degraded: cell table3×164.gzip failed" in text

    def test_corrupted_cache_is_never_served(self, tmp_path):
        from repro.profiling import PhaseProfiler

        cache_dir = str(tmp_path / "cache")
        baseline = generate_report(
            benchmarks=["gzip"], jobs=1, cache_dir=cache_dir, **WINDOWS,
        )
        corrupted = inject_cache_faults(cache_dir, FaultPlan(seed=1, rules=(
            FaultRule("bitflip", match="*.pkl", times=2),
            FaultRule("truncate", match="*.trace.bin", times=1),
        )))
        assert corrupted
        profiler = PhaseProfiler()
        warm = generate_report(
            benchmarks=["gzip"], jobs=1, cache_dir=cache_dir,
            profiler=profiler, **WINDOWS,
        )
        assert warm == baseline
        assert profiler.counters.get("cache_corrupt_dropped", 0) > 0

    def test_concurrent_reports_on_one_cache_dir(self, tmp_path):
        cache_dir = str(tmp_path / "shared")
        baseline = generate_report(
            benchmarks=["gzip"], jobs=1,
            cache_dir=str(tmp_path / "clean"), **WINDOWS,
        )
        texts = [None, None]

        def racer(slot):
            texts[slot] = generate_report(
                benchmarks=["gzip"], jobs=2, cache_dir=cache_dir,
                **WINDOWS,
            )

        threads = [
            threading.Thread(target=racer, args=(slot,))
            for slot in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert texts[0] == baseline and texts[1] == baseline


class TestChaosHarness:
    def test_inject_cache_faults_is_deterministic(self, tmp_path):
        cache = TraceCache(str(tmp_path))
        for index in range(4):
            cache.store_cell(
                TaskCell("s", f"b{index}", 1, ()), {"i": index}
            )
        plan = FaultPlan(seed=5, rules=(
            FaultRule("bitflip", match="*.pkl", times=2),
        ))
        first = inject_cache_faults(str(tmp_path), plan)
        assert len(first) == 2
        # Re-applying the same plan picks the same (sorted) victims.
        assert inject_cache_faults(str(tmp_path), plan) == first

    def test_output_invariant_classifies_divergence(self):
        ok = check_output_invariant("same", "same", "t")
        assert ok.ok
        annotated = check_output_invariant(
            "a", "a\n(degraded: cell x failed after 2 attempts — boom)",
            "t",
        )
        assert annotated.ok
        silent = check_output_invariant("a", "b", "t")
        assert not silent.ok

    def test_run_chaos_smoke(self, tmp_path):
        # End-to-end, minus the slow rounds: no hangs, no concurrency.
        result = chaos.run_chaos(chaos.ChaosOptions(
            benchmarks=("gzip",), jobs=2, seed=2,
            kills=1, hangs=0, fails=1, corrupt=1,
            task_timeout=30.0, concurrent=False,
            timing_window=1_500, functional_window=1_500,
            work_dir=str(tmp_path),
        ))
        assert result.ok, result.render()
        assert result.faults_planned == 2
        names = [check.name for check in result.checks]
        assert "report-identical-or-annotated" in names
        assert "no-orphan-workers" in names

    def test_default_work_root_is_removed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        result = chaos.run_chaos(chaos.ChaosOptions(
            benchmarks=("gzip",), jobs=1, seed=2,
            kills=0, hangs=0, fails=0, corrupt=0, concurrent=False,
            timing_window=1_500, functional_window=1_500,
        ))
        assert result.ok, result.render()
        assert not list(tmp_path.glob("repro-chaos-*"))


class TestSweepGapRow:
    def test_row_must_pick_metrics_or_error(self):
        from repro.harness.sweep import SweepRow

        with pytest.raises(ValueError, match="exactly one"):
            SweepRow(workload="w", opt_level=0, repetition=0, levels=())
        with pytest.raises(ValueError, match="exactly one"):
            SweepRow(
                workload="w", opt_level=0, repetition=0, levels=(),
                metrics={"speedup": 1.0}, error="boom",
            )
        row = SweepRow(
            workload="w", opt_level=0, repetition=0, levels=(),
            error="boom",
        )
        assert not row.ok
