"""Group-cell semantics of the sweep engine.

The contract (see :func:`repro.harness.sweep.run_sweep_batch_cell`):
a sweep submits one ``"sweep-batch"`` cell per (workload, opt, rep)
group, timing and traffic sweeps alike.  Every row's metrics equal
``simulate`` run per row at every ``--jobs``, per-row cell-cache keys
stay the caching unit (a partially-warm group recomputes only its
cold rows), and a failure inside a group degrades every row of that
group.
"""

import pytest

from repro.core.svf import StackValueFile
from repro.harness import sweep as sweep_mod
from repro.harness.sweep import SweepOptions, run_sweep
from repro.lang.codegen import CodegenOptions
from repro.sweepspec import parse_suite
from repro.uarch import pipeline
from repro.workloads import cached_trace, workload

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


def _run(spec, tmp_path, name, *, jobs=1):
    return run_sweep(
        spec, SweepOptions(jobs=jobs, cache_dir=str(tmp_path / name))
    )


@pytest.mark.parametrize("jobs", [1, 4])
def test_run_table_bytes_identical_batched_vs_unbatched(tmp_path, jobs):
    # Every row of a batched group equals its (baseline, variant) pair
    # simulated one config at a time.
    spec = timing_suite()
    batched = _run(spec, tmp_path, f"b{jobs}", jobs=jobs)
    assert batched.ok and len(batched.rows) == 4
    for point, row in zip(spec.expand(), batched.rows):
        baseline_config, config = sweep_mod._timing_config_pair(
            dict(point.machine)
        )
        trace = cached_trace(
            workload(point.workload), WINDOW,
            options=CodegenOptions(opt_level=point.opt_level),
        )
        expected = sweep_mod._metrics_from_stats(
            pipeline.simulate(trace, baseline_config),
            pipeline.simulate(trace, config),
        )
        assert row.metrics == expected


def test_fused_submission_shape(tmp_path, submitted_sections):
    # Two workloads x two ports group into one cell per workload:
    # 2 submitted cells, 4 run-table rows.
    spec = timing_suite()
    result = _run(spec, tmp_path, "shape")
    assert len(result.rows) == 4
    assert submitted_sections.count("sweep-batch") == 2
    assert "sweep" not in submitted_sections


def test_partially_warm_group_recomputes_only_cold_members(tmp_path):
    cache = tmp_path / "warm"
    # Warm only the ports=1 row of each workload's group: a one-row
    # group stores its row under the same per-row key.
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

    # Fully warm third run: every row resumes from the cache.
    third = run_sweep(full, SweepOptions(jobs=1, cache_dir=str(cache)))
    assert third.ok and third.cache_hits == len(third.rows) == 4

    # Warm rows are byte-identical to a cold run.
    cold = _run(full, tmp_path, "cold")
    assert third.run_table_json() == cold.run_table_json()


def test_member_failure_degrades_its_group(tmp_path, monkeypatch):
    # A stack unit that refuses 16-byte granules passes spec validation
    # but fails inside the simulator: the group's one batched call
    # fails, the engine retries the cell once, and every row of the
    # group degrades.
    class CoarseGranuleFault(StackValueFile):
        def __init__(self, *args, granularity=8, **kwargs):
            if granularity == 16:
                raise ValueError("injected fault: granularity 16")
            super().__init__(*args, granularity=granularity, **kwargs)

    spec = timing_suite(
        workloads=["gzip"], grid={"svf_granularity": [8, 16]}
    )
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "StackValueFile", CoarseGranuleFault)
        result = _run(spec, tmp_path, "deg")
    assert not result.ok and len(result.rows) == 2
    assert all(not row.ok and row.attempts == 2 for row in result.rows)
    assert all("granularity 16" in row.error for row in result.rows)

    # A batched call that raises degrades the whole group the same way.
    def explode(trace, configs):
        raise RuntimeError("batched pass exploded")

    monkeypatch.setattr(pipeline, "simulate_batch", explode)
    result = _run(timing_suite(workloads=["gzip"]), tmp_path, "explode")
    assert len(result.rows) == 2
    for row in result.rows:
        assert row.metrics is None and row.attempts == 2
        assert row.error == "RuntimeError: batched pass exploded"


def test_one_row_groups_submit_group_cells(tmp_path, submitted_sections):
    # One design point per workload: every group has one row, and it
    # is still submitted as its group cell.
    spec = timing_suite(grid={"svf_ports": [1]})
    result = _run(spec, tmp_path, "single")
    assert result.ok and len(result.rows) == 2
    assert submitted_sections == ["sweep-batch", "sweep-batch"]


def test_traffic_sweeps_submit_group_cells(tmp_path, submitted_sections):
    spec = parse_suite({
        "suite": "unit-traffic",
        "kind": "traffic",
        "workloads": ["gzip"],
        "window": WINDOW,
        "grid": {"svf_capacity": [4096, 8192]},
    })
    result = _run(spec, tmp_path, "traffic")
    assert result.ok and len(result.rows) == 2
    assert submitted_sections == ["sweep-batch"]


def test_sweep_chaos_plans_faults_over_fused_cells():
    # Chaos victims are drawn from the cells a real sweep submits:
    # the smoke suite's two workloads make two group cells.
    from pathlib import Path

    from repro.harness.chaos import ChaosOptions, _SweepTarget

    suite = Path(__file__).parents[1] / "benchmarks/suites/smoke.yaml"
    keys = _SweepTarget(ChaosOptions(suite=str(suite))).planned_keys()
    assert len(keys) == 2
    assert all(key.startswith("sweep-batch:") for key in keys)
