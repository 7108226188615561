"""Self-tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
from spans import Tracer, layer_self_seconds, self_times  # noqa: E402


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_seed_generator_is_deterministic(workload):
    assert inputs.draw(workload, 7) == inputs.draw(workload, 7)
    assert (inputs.draw(workload, checks.DEFAULT_SEED)
            != inputs.draw(workload, checks.HELD_OUT_SEED))


def test_report_subsets_cover_a_fixed_number_of_rows():
    from repro.workloads import input_names

    for seed in range(50):
        subset = inputs.draw("report-cold", seed).benchmarks
        assert len(subset) == inputs.REPORT_SUBSET
        assert (sum(len(input_names(name)) for name in subset)
                == inputs.REPORT_INPUTS)


def test_timing_grid_is_a_latin_hypercube_without_the_baseline():
    for seed in range(50):
        machines = inputs.draw("timing-grid", seed).machines
        assert machines[0] == inputs.BASELINE_MACHINE
        drawn = machines[1:]
        assert [m["svf_mode"] for m in drawn] == list(inputs.TIMING_MODES)
        for axis in ("width", "dl1_ports"):
            assert (sorted(m[axis] for m in drawn)
                    == sorted(inputs.TIMING_LEVELS[axis]))
        assert not any(inputs._same_as_baseline(m) for m in drawn)


def _span(id, name, parent, start, end, **attrs):
    return {"id": id, "name": name, "parent": parent, "start": start,
            "end": end, "attrs": attrs}


def test_self_time_subtracts_children_once_and_clips_them():
    spans = [
        _span(0, "bench.workload", None, 0.0, 10.0),
        _span(1, "emulator.run", 0, 1.0, 3.0),
        _span(2, "uarch.simulate_batch", 0, 2.0, 5.0),  # overlaps span 1
        _span(3, "core.simulate_traffic", 0, 9.0, 12.0),  # runs past 10
        _span(4, "bench.inner", 2, 4.0, 4.5),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (4.0 + 1.0))
    assert own[2] == pytest.approx(2.5)
    assert own[4] == pytest.approx(0.5)
    by_layer = layer_self_seconds(spans, 0)
    assert by_layer == pytest.approx(
        {"emulator": 2.0, "uarch": 2.5, "core": 3.0, "bench": 0.5}
    )


def test_tracer_records_parents_and_nothing_when_disabled():
    tracer = Tracer(True)
    with tracer.span("bench.workload"):
        with tracer.span("emulator.run", program="gzip") as attrs:
            attrs["instructions"] = 5
    assert [s["parent"] for s in tracer.spans] == [None, 0]
    assert tracer.spans[1]["attrs"] == {"program": "gzip",
                                        "instructions": 5}
    off = Tracer(False)
    with off.span("bench.workload") as attrs:
        attrs["ignored"] = 1
    assert off.spans == []


def _rep(ops, errors=(), leaked=()):
    return {"ops": ops, "errors": list(errors), "leaked_shm": list(leaked)}


def test_forced_digest_mismatch_counts_as_failed(monkeypatch):
    monkeypatch.setattr(checks, "recorded_for",
                        lambda workload, seed: {"a": "1", "b": "2"})
    reps = [_rep({"a": "1", "b": "2"}), _rep({"a": "1", "b": "forced"})]
    assert run.check("timing-grid", 1, reps, [])[:2] == (4, 1)


def test_every_kind_of_failure_counts(monkeypatch):
    monkeypatch.setattr(checks, "recorded_for", lambda workload, seed: None)
    reps = [
        _rep({"a": "1", "b": "2"}),
        _rep({"a": "1", "b": None}, errors=["b: ZeroDivisionError"]),
        _rep({"a": "1"}),
        _rep({"a": "1", "b": "2"}, leaked=["svf-1-x"]),
    ]
    attempted, failed, _ = run.check("stack-traffic", 5, reps,
                                     ["exit 1: boom"])
    # raised, missing, leaked segment, and a crashed repetition (2 ops)
    assert (attempted, failed) == (2 + 2 + 2 + 3 + 2, 1 + 1 + 1 + 2)


def test_a_report_that_raises_in_every_repetition_fails(monkeypatch,
                                                        tmp_path):
    import repro.api
    import rep as repetition

    def broken(*args, **kwargs):
        raise RuntimeError("render failed")

    monkeypatch.setattr(repro.api, "generate_report", broken)
    seed = 999
    assert checks.recorded_for("report-cold", seed) is None
    reps = []
    for _ in range(3):
        report = repetition.ReportCold(inputs.draw("report-cold", seed),
                                       Tracer(False), None, tmp_path)
        report.setup()
        report.run()
        reps.append(_rep(report.digests(), report.errors))
    assert run.check("report-cold", seed, reps, [])[:2] == (3, 3)


def test_private_sink_state_is_not_digested():
    from repro.trace.first_touch import FirstTouchProfile

    worked = FirstTouchProfile()
    worked._pending.add(64)
    worked._previous_sp = 4096
    assert checks.digest(worked) == checks.digest(FirstTouchProfile())
    worked.stack_first_loads = 1
    assert checks.digest(worked) != checks.digest(FirstTouchProfile())


def test_degraded_report_rows_fail():
    text = ("## Table 3 — memory traffic\n\n```\nrow one\n\nrow two\n"
            "(degraded: cell table3/gzip failed after 2 attempts — x)\n"
            "```\n")
    rows = checks.report_rows(text)
    assert list(rows) == ["Table 3 — memory traffic#0",
                          "Table 3 — memory traffic#1",
                          "Table 3 — memory traffic#2"]
    assert rows["Table 3 — memory traffic#2"] is None
    assert checks.failed_operations(rows, None) == [
        "Table 3 — memory traffic#2"
    ]


def test_metric_and_workload_names_are_well_formed():
    names = ([name for name, _, _ in metrics.END_TO_END]
             + [name for name, _, _ in metrics.PER_LAYER]
             + list(inputs.WORKLOADS))
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name


def _traced_record(engine):
    spans = [
        _span(0, "bench.setup", None, 0.0, 1.0),
        _span(1, "lang.compile", 0, 0.1, 0.4, program="gzip", opt=0),
        _span(2, "lang.compile", 0, 0.4, 0.9, program="gzip", opt=1),
        _span(3, "bench.workload", None, 1.0, 5.0),
        _span(4, "emulator.run", 3, 1.0, 2.0, instructions=1000),
        _span(5, "core.simulate_traffic", 3, 2.0, 4.0),
        _span(6, "trace.consume_trace", 3, 4.0, 4.9),
    ]
    record = {
        "spans": spans,
        "wall_s": 4.0,
        "cpu_s": 4.5,
        "ops": {"x": "1"},
        "counts": {"instructions": 1000, "column_bytes": 56000,
                   "retries": 0, "cache_bytes": 10**6},
        "profile": {
            "phases": {"emulate": [1, 1.0, 1000], "traffic": [1, 2.0, 1000],
                       "analysis": [1, 0.9, 1000]},
            "counters": {"superblock_replayed_instructions": 800},
        },
        "engine": engine,
    }
    return record


def test_benchmark_json_names_what_run_py_prints():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(inputs.WORKLOADS)
    assert [(m["name"], m["unit"], m["bound"])
            for m in declared["end_to_end"]] == list(metrics.END_TO_END)
    assert all(m["better"] == "lower" for m in declared["end_to_end"])
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] == list(metrics.PER_LAYER)

    untraced = [{"wall_s": 5.0, "cpu_s": 5.0, "peak_rss_mb": 80.0}]
    printed = metrics.end_to_end(untraced, [0.5, 0.6])
    assert list(printed) == [m["name"] for m in declared["end_to_end"]]
    engine = {"workers": 2, "recycled": 0, "shm_bytes": 10**6}
    for record in (_traced_record(None), _traced_record(engine)):
        printed = metrics.per_layer([record], untraced)
        assert sorted(printed) == sorted(m["name"]
                                         for m in declared["per_layer"])


def test_direct_call_layers_come_from_spans():
    values = metrics.layer_values(_traced_record(None))
    assert values["lang.compile_s"] == pytest.approx(0.8)
    assert values["lang.compile_o1_s"] == pytest.approx(0.5)
    assert values["emulator.run_s"] == pytest.approx(1.0)
    assert values["emulator.superblock_coverage"] == pytest.approx(0.8)
    assert values["bench.layer_coverage"] == pytest.approx(3.9 / 4.0)
    assert values["harness.cells"] == 0
