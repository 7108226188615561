"""Fusion semantics of the batched sweep engine.

The contract (see :func:`repro.harness.sweep.run_sweep_batch_cell`):
fusing timing cells into ``"sweep-batch"`` groups changes submission
shape only — run-table and summary bytes are identical to per-member
execution at every ``--jobs``, per-member cell-cache keys stay the
caching unit (a partially-warm group recomputes only its cold
members), and failures degrade exactly the offending member's row.
"""

import pytest

from repro.core.svf import StackValueFile
from repro.harness import parallel
from repro.harness import sweep as sweep_mod
from repro.harness.sweep import SweepOptions, run_sweep
from repro.sweepspec import parse_suite
from repro.uarch import pipeline

WINDOW = 2_000


@pytest.fixture
def submitted_sections(monkeypatch):
    """Record the section of every cell handed to the engine."""
    sections = []
    original = sweep_mod.run_cells

    def wrapper(cells, *args, **kwargs):
        sections.extend(cell.section for cell in cells)
        return original(cells, *args, **kwargs)

    monkeypatch.setattr(sweep_mod, "run_cells", wrapper)
    return sections


def timing_suite(**overrides):
    data = {
        "suite": "unit-batch",
        "kind": "timing",
        "workloads": ["gzip", "mcf"],
        "window": WINDOW,
        "base": {"machine": {"svf_mode": "svf"}},
        "grid": {"svf_ports": [1, 2]},
    }
    data.update(overrides)
    return parse_suite(data)


def _run(spec, tmp_path, name, *, jobs=1, use_cache=True):
    return run_sweep(spec, SweepOptions(
        jobs=jobs,
        cache_dir=str(tmp_path / name) if use_cache else None,
        use_cache=use_cache,
    ))


def _run_per_member(spec, tmp_path, name, monkeypatch):
    """Run ``spec`` inline with an interposed ``"sweep"`` runner, which
    makes every fused group execute its members one by one; returns
    the result and the member cells the runner saw."""
    seen = []

    def per_member(cell):
        seen.append(cell)
        return sweep_mod.run_sweep_cell(cell)

    with monkeypatch.context() as patch:
        patch.setitem(parallel._CELL_RUNNERS, "sweep", per_member)
        result = _run(spec, tmp_path, name)
    return result, seen


@pytest.mark.parametrize("jobs", [1, 4])
def test_run_table_bytes_identical_batched_vs_unbatched(
    tmp_path, jobs, monkeypatch
):
    spec = timing_suite()
    batched = _run(spec, tmp_path, f"b{jobs}", jobs=jobs)
    plain, seen = _run_per_member(spec, tmp_path, f"p{jobs}", monkeypatch)
    assert len(seen) == len(plain.rows) == 4
    assert batched.ok and plain.ok
    assert batched.run_table_json() == plain.run_table_json()
    assert batched.render_summary() == plain.render_summary()


def test_fused_submission_shape(tmp_path, submitted_sections):
    # Two workloads x two ports fuse into one batch cell per workload:
    # 2 submitted cells, 4 run-table rows.
    spec = timing_suite()
    result = _run(spec, tmp_path, "shape")
    assert len(result.rows) == 4
    assert submitted_sections.count("sweep-batch") == 2
    assert "sweep" not in submitted_sections


def test_partially_warm_group_recomputes_only_cold_members(tmp_path):
    cache = tmp_path / "warm"
    # Warm only the ports=1 member of each workload's group (singleton
    # groups run as plain cells, landing under the member cache keys).
    narrow = timing_suite(grid={"svf_ports": [1]})
    first = run_sweep(narrow, SweepOptions(jobs=1, cache_dir=str(cache)))
    assert first.ok and first.cache_hits == 0

    full = timing_suite()
    second = run_sweep(full, SweepOptions(jobs=1, cache_dir=str(cache)))
    assert second.ok and len(second.rows) == 4
    by_ports = {
        (row.workload, row.level("svf_ports")): row.cache_hit
        for row in second.rows
    }
    assert all(hit for key, hit in by_ports.items() if key[1] == 1)
    assert not any(hit for key, hit in by_ports.items() if key[1] == 2)

    # Fully warm third run: every member resumes from the cache.
    third = run_sweep(full, SweepOptions(jobs=1, cache_dir=str(cache)))
    assert third.ok and third.cache_hits == len(third.rows) == 4

    # Warm rows are byte-identical to a cold run.
    cold = _run(full, tmp_path, "cold")
    assert third.run_table_json() == cold.run_table_json()


def test_member_failure_degrades_exactly_one_row(tmp_path, monkeypatch):
    # A stack unit that refuses 16-byte granules passes spec validation
    # but fails inside the simulator: the batched call fails as a
    # whole, falls back to sequential per-member execution, and only
    # the bad member's row degrades.
    class CoarseGranuleFault(StackValueFile):
        def __init__(self, *args, granularity=8, **kwargs):
            if granularity == 16:
                raise ValueError("injected fault: granularity 16")
            super().__init__(*args, granularity=granularity, **kwargs)

    monkeypatch.setattr(pipeline, "StackValueFile", CoarseGranuleFault)
    spec = timing_suite(
        workloads=["gzip"], grid={"svf_granularity": [8, 16]}
    )
    result = _run(spec, tmp_path, "deg")
    assert not result.ok
    bad = [row for row in result.rows if not row.ok]
    assert len(bad) == 1
    assert bad[0].level("svf_granularity") == 16
    assert "granularity" in bad[0].error
    good = [row for row in result.rows if row.ok]
    assert len(good) == 1 and good[0].metrics["speedup"] > 0


def test_batch_engine_failure_falls_back_sequentially(
    tmp_path, monkeypatch
):
    # If the fused call itself blows up, members recompute one by one
    # through the stock runner; no row degrades.
    def explode(trace, configs):
        raise RuntimeError("batched pass exploded")

    monkeypatch.setattr(pipeline, "simulate_batch", explode)
    spec = timing_suite(workloads=["gzip"])
    result = _run(spec, tmp_path, "fallback")
    assert result.ok and len(result.rows) == 2


def test_one_row_groups_submit_plain_cells(tmp_path, submitted_sections):
    # One design point per workload: every group has one row, and a
    # one-row group is submitted as its plain cell.
    spec = timing_suite(grid={"svf_ports": [1]})
    result = _run(spec, tmp_path, "single")
    assert result.ok and len(result.rows) == 2
    assert submitted_sections == ["sweep", "sweep"]


def test_traffic_sweeps_never_fuse(tmp_path, submitted_sections):
    spec = parse_suite({
        "suite": "unit-traffic",
        "kind": "traffic",
        "workloads": ["gzip"],
        "window": WINDOW,
        "grid": {"svf_capacity": [4096, 8192]},
    })
    result = _run(spec, tmp_path, "traffic")
    assert result.ok
    assert submitted_sections == ["sweep", "sweep"]


def test_sweep_chaos_plans_faults_over_fused_cells():
    # Chaos victims are drawn from the cells a real sweep submits:
    # the smoke suite's two workloads fuse into two group cells.
    from pathlib import Path

    from repro.harness.chaos import ChaosOptions, _SweepTarget

    suite = Path(__file__).parents[1] / "benchmarks/suites/smoke.yaml"
    keys = _SweepTarget(ChaosOptions(suite=str(suite))).planned_keys()
    assert len(keys) == 2
    assert all(key.startswith("sweep-batch:") for key in keys)
