"""Recorded statistics for the out-of-order timing model.

``simulate`` has one scheduling walk, so these tests hold it to
statistics recorded from an independent implementation:
``pipeline_golden.json`` was recorded at commit 69d8cca with numpy
disabled, i.e. from the dict-pool reference walk that then ran beside
the dense-window walk.  The dense-window walk reproduced every field
of every row before the reference walk was deleted.  The ``CONFIGS``
rows for the 4- and 8-wide machines, ``agu_depth``, ``no_addr_calc``,
``spec_sp=False``, ``int_alus=2``, the Figure 6/7 DL1 variants, the
context-switching stack cache, an IFQ and an LSQ that bind, and the
:data:`SP_INTERLOCK` rows were added at commit 079fba0, from the walk
before its fetch stage was folded into dispatch; every older row came
out unchanged in that recording.

The fixture stores the :class:`SimStats` field names once and one row
of values per (trace, config) pair:

* ``shapes`` -- gzip and eon under every config in :data:`CONFIGS`,
  plus crafty, mcf and perlbmk under base/svf/ideal/gshare and the
  :data:`SP_INTERLOCK` loop under six configs, at an
  8,000-instruction window;
* ``grid`` -- every registry workload under the 12-config ``GRID`` of
  ``tests/test_pipeline_batch.py`` at a 2,000-instruction window.

The test names date from when the dense-window ("fast") walk ran
beside the reference walk; "reference" now means its recording.

After a deliberate change to the timing model, re-record from the
repository root with ``PYTHONPATH=src python -m
tests.test_pipeline_vectorized`` and commit the new fixture together
with the change that explains it.
"""

import dataclasses
import json
import os

import pytest

from repro.emulator import Machine
from repro.harness.experiments import fig6_machine_pair, fig7_machine_pair
from repro.isa import assemble
from repro.trace.columnar import ColumnarTrace
from repro.uarch.config import table2_config
from repro.uarch.pipeline import simulate
from repro.uarch.stats import SimStats
from repro.workloads import ALL_BENCHMARKS, workload
from tests.test_pipeline_batch import GRID

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "pipeline_golden.json")

SHAPES_WINDOW = 8_000
GRID_WINDOW = 2_000

_BASE = table2_config(16)

#: every configuration axis the walk special-cases.
CONFIGS = {
    "base": _BASE,
    "svf": _BASE.with_svf(mode="svf", ports=2),
    "svf_banked": _BASE.with_svf(mode="svf", ports=1, banks=4),
    "ideal": _BASE.with_svf(mode="ideal"),
    "stack_cache": _BASE.with_svf(mode="stack_cache"),
    "adaptive": _BASE.with_svf(mode="svf", ports=2, adaptive=True),
    "no_squash": _BASE.with_svf(mode="svf", ports=2, no_squash=True),
    "ctx_switch": dataclasses.replace(
        _BASE.with_svf(mode="svf", ports=2), context_switch_period=2_000
    ),
    "gshare": dataclasses.replace(
        _BASE.with_svf(mode="svf", ports=2), branch_predictor="gshare"
    ),
    # Narrow machines: small IFQ/RUU/LSQ rings that fill and bind.
    "w4": table2_config(4),
    "w4_svf": table2_config(4).with_svf(mode="svf", ports=1),
    "w8": table2_config(8),
    "w8_svf": table2_config(8).with_svf(mode="svf", ports=1),
    "agu3": _BASE.with_(agu_depth=3),
    "agu3_svf": _BASE.with_(agu_depth=3).with_svf(mode="svf", ports=2),
    "no_addr_calc": _BASE.with_(no_addr_calc=True),
    "svf_no_spec_sp": _BASE.with_svf(mode="svf", ports=2, spec_sp=False),
    # Fewer ALUs than issue slots: the ALU window binds.
    "alu2": _BASE.with_(int_alus=2),
    "dl1_2x": fig6_machine_pair("L1_2x")[1],
    "dl1_4p0": fig7_machine_pair("(4+0)")[1],
    "stack_cache_ctx_switch": dataclasses.replace(
        _BASE.with_svf(mode="stack_cache"), context_switch_period=2_000
    ),
    # An IFQ shorter than frontend_depth cycles of dispatch, and an LSQ
    # short enough to fill before the RUU does: both bind.
    "ifq8": _BASE.with_(ifq_size=8),
    "lsq8": _BASE.with_(lsq_size=8),
}

#: No registry workload writes $sp other than by ``lda sp, imm(sp)``,
#: so this loop pins the $sp interlock: each ``addq``/``subq`` to $sp
#: stalls decode behind a multiply once a stack unit is attached.
SP_INTERLOCK = "asm.sp_interlock"
_SP_INTERLOCK_SOURCE = """
.text
main:
    lda   t1, 300(zero)
    lda   t7, -64(zero)
    lda   t8, 1(zero)
main$loop:
    mulq  t7, t8, t2
    addq  sp, t2, sp
    stq   t1, 0(sp)
    stq   t2, 8(sp)
    ldq   t4, 0(sp)
    addq  t4, t1, t4
    stq   t4, 16(sp)
    subq  sp, t2, sp
    ldq   t5, -64(sp)
    ldq   t6, -48(sp)
    addq  t5, t6, t5
    lda   t1, -1(t1)
    bne   t1, main$loop
    ret
"""

#: Three very different reference structures beside gzip: deep
#: recursion (crafty), pointer chasing (mcf), and an interpreter loop
#: (perlbmk) -- between them they exercise rerouting, out-of-range
#: offsets, and dense stack reuse.  eon is the one window that
#: squashes, so it pins the squash and no_squash paths.
SHAPES = {
    "gzip": sorted(CONFIGS),
    "eon": sorted(CONFIGS),
    "crafty": ["base", "svf", "ideal", "gshare"],
    "mcf": ["base", "svf", "ideal", "gshare"],
    "perlbmk": ["base", "svf", "ideal", "gshare"],
    SP_INTERLOCK: ["base", "svf", "ideal", "no_squash", "ifq8", "lsq8"],
}

FIELDS = [field.name for field in dataclasses.fields(SimStats)]


def _shape_trace(bench: str) -> ColumnarTrace:
    if bench == SP_INTERLOCK:
        trace = ColumnarTrace()
        Machine(assemble(_SP_INTERLOCK_SOURCE)).run(
            max_instructions=SHAPES_WINDOW, trace_sink=trace
        )
        return trace
    return workload(bench).trace(max_instructions=SHAPES_WINDOW)


def _row(stats: SimStats) -> list:
    return [getattr(stats, name) for name in FIELDS]


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        document = json.load(handle)
    assert document["fields"] == FIELDS, "SimStats fields changed"
    return document


def _assert_matches(stats, recorded, label):
    for name, value, expected in zip(FIELDS, _row(stats), recorded):
        assert value == expected, (
            f"{label}: {name} diverged "
            f"(recorded {expected!r}, walk {value!r})"
        )


@pytest.fixture(scope="module")
def gzip_trace():
    return workload("gzip").trace(max_instructions=SHAPES_WINDOW)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_fast_walk_matches_reference(golden, gzip_trace, name):
    stats = simulate(gzip_trace, CONFIGS[name])
    _assert_matches(stats, golden["shapes"]["gzip"][name], f"gzip:{name}")


@pytest.mark.parametrize("bench", sorted(set(SHAPES) - {"gzip"}))
def test_fast_walk_across_workload_shapes(golden, bench):
    recorded = golden["shapes"][bench]
    trace = _shape_trace(bench)
    for name in SHAPES[bench]:
        stats = simulate(trace, CONFIGS[name])
        _assert_matches(stats, recorded[name], f"{bench}:{name}")


@pytest.mark.parametrize("bench", ALL_BENCHMARKS)
def test_grid_matches_recording(golden, bench):
    recorded = golden["grid"][bench]
    assert len(recorded) == len(GRID)
    trace = workload(bench).trace(max_instructions=GRID_WINDOW)
    for i, config in enumerate(GRID):
        _assert_matches(simulate(trace, config), recorded[i],
                        f"{bench}[{i}]")


def test_recording_covers_every_workload(golden):
    assert sorted(golden["grid"]) == sorted(ALL_BENCHMARKS)
    assert {
        bench: sorted(rows) for bench, rows in golden["shapes"].items()
    } == {bench: sorted(names) for bench, names in SHAPES.items()}


def test_empty_trace_is_identical():
    config = CONFIGS["svf"]
    assert simulate(ColumnarTrace(), config) == SimStats(
        config_name=config.name
    )


def test_record_list_routes_through_reference():
    # Non-columnar input (a plain record list) is packed on entry and
    # times exactly like the emulator's own columns.
    trace = workload("gzip").trace(max_instructions=1_000)
    records = list(trace.records())
    config = CONFIGS["svf"]
    assert simulate(records, config) == simulate(trace, config)


def _format(value, depth=0) -> str:
    """JSON with one stats row per line, so a re-recording diffs by row."""
    pad = " " * (depth + 1)
    if isinstance(value, dict):
        items = [
            f"{pad}{json.dumps(key)}: {_format(item, depth + 1)}"
            for key, item in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + " " * depth + "}"
    if value and isinstance(value[0], list):
        rows = [pad + json.dumps(row) for row in value]
        return "[\n" + ",\n".join(rows) + "\n" + " " * depth + "]"
    return json.dumps(value)


def record(path: str = GOLDEN_PATH) -> None:
    """Re-run every recorded pair and rewrite the fixture."""
    shapes = {}
    for bench, names in SHAPES.items():
        trace = _shape_trace(bench)
        shapes[bench] = {
            name: _row(simulate(trace, CONFIGS[name])) for name in names
        }
    grid = {}
    for bench in ALL_BENCHMARKS:
        trace = workload(bench).trace(max_instructions=GRID_WINDOW)
        grid[bench] = [_row(simulate(trace, config)) for config in GRID]
    document = {"fields": FIELDS, "shapes": shapes, "grid": grid}
    with open(path, "w") as handle:
        handle.write(_format(document) + "\n")


if __name__ == "__main__":
    record()
