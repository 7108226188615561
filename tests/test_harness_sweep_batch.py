"""Fusion semantics of the batched sweep engine.

The contract (see :func:`repro.harness.sweep.run_sweep_batch_cell`):
fusing timing cells into ``"sweep-batch"`` groups changes submission
shape only — run-table and summary bytes are identical batched vs
unbatched at every ``--jobs``, per-member cell-cache keys stay the
caching unit (a partially-warm group recomputes only its cold
members), and failures degrade exactly the offending member's row.
"""

import pytest

from repro.core.svf import StackValueFile
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


def _run(spec, tmp_path, name, *, jobs=1, batch=True, use_cache=True):
    return run_sweep(spec, SweepOptions(
        jobs=jobs,
        cache_dir=str(tmp_path / name) if use_cache else None,
        use_cache=use_cache,
        batch=batch,
    ))


@pytest.mark.parametrize("jobs", [1, 4])
def test_run_table_bytes_identical_batched_vs_unbatched(tmp_path, jobs):
    spec = timing_suite()
    batched = _run(spec, tmp_path, f"b{jobs}", jobs=jobs, batch=True)
    plain = _run(spec, tmp_path, f"p{jobs}", jobs=jobs, batch=False)
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

    # Warm rows are byte-identical to a cold unbatched run.
    cold = _run(full, tmp_path, "cold", batch=False)
    assert third.run_table_json() == cold.run_table_json()


def test_member_failure_degrades_exactly_one_row(tmp_path, monkeypatch):
    # A stack unit that refuses 16-byte granules passes spec validation
    # but fails inside the simulator: the batched pass fails as a
    # whole, falls back to sequential per-member execution, and only
    # the bad member's row degrades — with the same bytes the
    # unbatched run produces.
    class CoarseGranuleFault(StackValueFile):
        def __init__(self, *args, granularity=8, **kwargs):
            if granularity == 16:
                raise ValueError("injected fault: granularity 16")
            super().__init__(*args, granularity=granularity, **kwargs)

    monkeypatch.setattr(pipeline, "StackValueFile", CoarseGranuleFault)
    spec = timing_suite(
        workloads=["gzip"], grid={"svf_granularity": [8, 16]}
    )
    batched = _run(spec, tmp_path, "deg-b", batch=True)
    plain = _run(spec, tmp_path, "deg-p", batch=False)
    for result in (batched, plain):
        assert not result.ok
        bad = [row for row in result.rows if not row.ok]
        assert len(bad) == 1
        assert bad[0].level("svf_granularity") == 16
        assert "granularity" in bad[0].error
        good = [row for row in result.rows if row.ok]
        assert len(good) == 1 and good[0].metrics["speedup"] > 0
    assert batched.run_table_json() == plain.run_table_json()
    assert batched.render_summary() == plain.render_summary()


def test_batch_engine_failure_falls_back_sequentially(
    tmp_path, monkeypatch
):
    # If the fused pass itself blows up, members recompute one by one
    # through the stock runner; no row degrades.
    def explode(trace, configs):
        raise RuntimeError("batched pass exploded")

    monkeypatch.setattr(pipeline, "simulate_batch", explode)
    spec = timing_suite(workloads=["gzip"])
    result = _run(spec, tmp_path, "fallback")
    assert result.ok and len(result.rows) == 2


def test_no_batch_option_and_gate_produce_plain_cells(
    tmp_path, submitted_sections
):
    spec = timing_suite(workloads=["gzip"])
    _run(spec, tmp_path, "plain", batch=False)
    assert submitted_sections == ["sweep", "sweep"]

    del submitted_sections[:]
    previous = pipeline.set_batch_enabled(False)
    try:
        _run(spec, tmp_path, "gated", batch=True)
    finally:
        pipeline.set_batch_enabled(previous)
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
