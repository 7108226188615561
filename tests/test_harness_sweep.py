"""The sweep engine: run tables, determinism, resumability, gaps.

The contract under test (see :mod:`repro.harness.sweep`):

* the run table and summary are byte-identical across ``jobs`` values
  and across warm re-runs — scheduling and caching never leak in;
* with the disk cache on, a second identical run skips every cell
  (resumability), visible as ``cache_hits == len(rows)``;
* a group cell that fails degrades its rows to annotated gap rows
  instead of aborting the sweep.
"""

import json

import pytest

from repro.errors import UsageError
from repro.harness import parallel
from repro.harness.sweep import (
    SweepOptions,
    plan_cells,
    run_sweep,
    run_sweep_batch_cell,
)
from repro.sweepspec import parse_suite

WINDOW = 2_000


def timing_suite(**overrides):
    data = {
        "suite": "unit-timing",
        "kind": "timing",
        "workloads": ["gzip", "mcf"],
        "window": WINDOW,
        "base": {"machine": {"svf_mode": "svf"}},
        "grid": {"svf_ports": [1, 2]},
    }
    data.update(overrides)
    return parse_suite(data)


def test_sweep_options_reject_bad_jobs():
    with pytest.raises(UsageError, match="jobs"):
        SweepOptions(jobs=0)


def test_timing_sweep_metrics_match_direct_simulation():
    from repro import api

    spec = timing_suite()
    result = run_sweep(spec, SweepOptions(jobs=1, use_cache=False))
    assert result.ok and len(result.rows) == 4
    assert result.kind == "timing"
    assert result.factors == ("svf_ports",)

    row = next(
        r for r in result.rows
        if r.workload == "164.gzip" and r.level("svf_ports") == 2
    )
    baseline = api.simulate("gzip", api.MachineSpec(),
                            max_instructions=WINDOW)
    variant = api.simulate(
        "gzip", api.MachineSpec(svf_mode="svf", svf_ports=2),
        max_instructions=WINDOW,
    )
    assert row.metric("cycles") == variant.cycles
    assert row.metric("baseline_cycles") == baseline.cycles
    assert row.metric("speedup") == round(
        variant.speedup_over(baseline), 6
    )


def test_traffic_sweep_reports_quadword_traffic():
    spec = parse_suite({
        "suite": "unit-traffic",
        "kind": "traffic",
        "workloads": ["gzip"],
        "window": WINDOW,
        "grid": {"svf_granularity": [8, 32]},
    })
    result = run_sweep(spec, SweepOptions(jobs=1, use_cache=False))
    assert result.ok and len(result.rows) == 2
    by_granule = {
        row.level("svf_granularity"): row.metric("qw_total")
        for row in result.rows
    }
    # Coarser granules never reduce traffic.
    assert by_granule[32] >= by_granule[8] >= 0


def test_run_table_byte_identical_across_jobs():
    spec = timing_suite()
    inline = run_sweep(spec, SweepOptions(jobs=1, use_cache=False))
    fanned = run_sweep(spec, SweepOptions(jobs=4, use_cache=False))
    assert inline.run_table_json() == fanned.run_table_json()
    assert inline.render_summary() == fanned.render_summary()
    assert fanned.jobs == 4  # provenance may differ; the table may not


def test_second_run_resumes_from_cell_cache(tmp_path):
    spec = timing_suite()
    options = SweepOptions(jobs=1, cache_dir=str(tmp_path))
    cold = run_sweep(spec, options)
    warm = run_sweep(spec, options)
    assert cold.ok and warm.ok
    assert warm.cache_hits == len(warm.rows) == 4
    # Warm rows are byte-identical to cold ones.
    assert warm.run_table_json() == cold.run_table_json()
    # The cache hit lives in the meta payload, not the run table.
    assert '"cache_hit"' in warm.meta_json()
    assert '"cache_hit"' not in warm.run_table_json()


def test_failed_cell_degrades_to_annotated_gap(monkeypatch):
    spec = timing_suite()

    def flaky(cell):
        if cell.benchmark == "181.mcf":
            raise RuntimeError("injected cell failure")
        return run_sweep_batch_cell(cell)

    monkeypatch.setitem(parallel._CELL_RUNNERS, "sweep-batch", flaky)
    result = run_sweep(spec, SweepOptions(jobs=1, use_cache=False))
    assert not result.ok and len(result.rows) == 4
    # The failed group cell gaps both of mcf's rows; gzip's group
    # keeps its metrics.
    for row in result.rows:
        if row.workload == "181.mcf":
            assert row.metrics is None
            assert row.error == "RuntimeError: injected cell failure"
        else:
            assert row.ok and row.metrics["speedup"] > 0
    # The summary names each gap the way report sections annotate
    # failed cells.
    summary = result.render_summary()
    assert "--" in summary
    assert summary.count("(degraded: row 181.mcf") == 2
    payload = json.loads(result.run_table_json())
    assert payload["ok"] is False


def test_write_artifacts_and_submission_order(tmp_path):
    spec = timing_suite(workloads=["gzip"])
    result = run_sweep(spec, SweepOptions(
        jobs=1, use_cache=False, out_dir=str(tmp_path / "out")
    ))
    names = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert names == ["run_meta.json", "run_table.json", "summary.txt"]
    on_disk = (tmp_path / "out" / "run_table.json").read_text()
    assert on_disk == result.run_table_json() + "\n"

    # plan_cells: canonical row order, combo-major submission order.
    points, cells = plan_cells(timing_suite())
    assert len(points) == len(cells) == 4
    assert [dict(c.params)["svf_ports"] for c in cells] == [1, 1, 2, 2]
