"""Static SVF-traffic predictor (per-function fill/writeback bounds).

The SVF's two valid/dirty-bit wins are bounded statically by the same
CFG facts the lint passes compute:

* **fill-reads avoided** — a full-granule store validating a freshly
  allocated (invalid) granule needs no fill from the L1.  Per
  activation, each frame granule can be validated this way at most
  once, and only granules some store can fully cover qualify: those
  written by an aligned constant ``stq``, plus — when the frame has
  taken addresses and either a computed store or a call can write
  through them — every granule of the aliased region.

* **writebacks killed** — a dirty granule dropped at frame death costs
  no writeback.  Per activation, only granules the activation can
  dirty qualify: those touched by any constant store, plus the same
  aliased term.

Both are *upper bounds per activation*: multiplied by the dynamic
activation count of each function they must dominate the simulator's
measured ``fills_avoided`` / ``killed_dirty_words`` counters (the
harness cross-check in :mod:`repro.harness.prediction` asserts
exactly that).  The bounds are sound under the stack discipline the
lint passes verify; a program with structural anomalies, ``$sp``
tracking failures, frame errors, or a stack address escaping to
non-stack memory (a potential dangling alias) is reported as
unanalyzable instead of being given bounds that could be violated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.analysis.cfg import ProgramCFG, build_cfg
from repro.analysis.report import Severity
from repro.analysis.stackcheck import (
    analyze_frames,
    dead_store_pass,
    escape_events,
    first_read_pass,
)
from repro.isa.instructions import Program

#: CFG anomalies that leave the graph (and so the facts) incomplete.
_FATAL_ANOMALIES = frozenset({
    "escaping-branch", "indirect-jump", "fallthrough-exit",
})

_GRANULE = 8


@dataclass(frozen=True)
class FunctionPrediction:
    """Per-activation SVF bounds for one function."""

    name: str
    #: frame allocation in bytes (0 for frameless functions)
    frame_bytes: int
    #: distinct granules touched by constant frame stores (any size)
    store_granules: int
    #: distinct granules fully covered by one aligned constant ``stq``
    full_store_granules: int
    #: granules of the aliased region chargeable to computed writers
    aliased_granules: int
    #: static dead-store sites (lint ``dead-store`` diagnostics)
    dead_store_sites: int
    #: first-read sites (each may force a demand fill)
    first_read_sites: int
    #: per-activation upper bound on fill-reads avoided
    fill_avoid_bound: int
    #: per-activation upper bound on dirty granules killed at death
    writeback_kill_bound: int


@dataclass
class TrafficPrediction:
    """Static bounds for every function of one program."""

    functions: Dict[str, FunctionPrediction] = field(default_factory=dict)
    #: True when every function's facts are trustworthy
    analyzable: bool = True
    #: why analyzability was lost (empty when analyzable)
    reasons: list = field(default_factory=list)

    def function(self, name: str) -> Optional[FunctionPrediction]:
        return self.functions.get(name)

    @property
    def total_fill_avoid_bound(self) -> int:
        return sum(
            p.fill_avoid_bound for p in self.functions.values()
        )

    @property
    def total_writeback_kill_bound(self) -> int:
        return sum(
            p.writeback_kill_bound for p in self.functions.values()
        )


def _granules(offset: int, size: int) -> Set[int]:
    return set(range(offset // _GRANULE, (offset + size - 1) // _GRANULE + 1))


def predict_program(
    program: Program, pcfg: Optional[ProgramCFG] = None
) -> TrafficPrediction:
    """Compute per-function SVF-traffic bounds for ``program``."""
    if pcfg is None:
        pcfg = build_cfg(program)
    prediction = TrafficPrediction()
    for anomaly in pcfg.anomalies:
        if anomaly.kind in _FATAL_ANOMALIES:
            prediction.analyzable = False
            prediction.reasons.append(
                f"{anomaly.function}: {anomaly.message}"
            )
    for function in pcfg.functions.values():
        context, diagnostics = analyze_frames(function)
        if not context.sp_tracked or any(
            d.severity is Severity.ERROR for d in diagnostics
        ):
            prediction.analyzable = False
            prediction.reasons.append(
                f"{function.name}: $sp untracked or frame errors"
            )
            continue

        if any(
            function.instruction(index).is_sp_adjust
            and function.instruction(index).imm % _GRANULE != 0
            for block in function.blocks
            for index in block.indices()
        ):
            # A misaligned frame shifts granule boundaries relative to
            # the entry $sp; entry-relative granule ids stop matching
            # the SVF's absolute ones.
            prediction.analyzable = False
            prediction.reasons.append(
                f"{function.name}: frame size not granule-aligned"
            )

        first_reads = first_read_pass(context)
        dead_stores = dead_store_pass(context)
        if escape_events(context, {}, seeded=False).unclean:
            # A stack address stored outside the stack can outlive its
            # frame; a dangling alias breaks per-activation attribution.
            prediction.analyzable = False
            prediction.reasons.append(
                f"{function.name}: stack address escapes to non-stack "
                f"memory"
            )

        store_granules: Set[int] = set()
        full_store_granules: Set[int] = set()
        has_computed_store = False
        for block in function.blocks:
            if block.id not in context.reachable:
                continue
            for index in block.indices():
                instruction = function.instruction(index)
                if not instruction.is_store:
                    continue
                slot = context.slot(index)
                if slot is None:
                    has_computed_store = True
                    continue
                offset, size = slot
                store_granules |= _granules(offset, size)
                if size == _GRANULE and offset % _GRANULE == 0:
                    full_store_granules.add(offset // _GRANULE)

        aliased: Set[int] = set()
        floor = context.aliased_floor
        if floor < 0 and (has_computed_store or function.call_sites):
            aliased = set(range(floor // _GRANULE, 0))

        prediction.functions[function.name] = FunctionPrediction(
            name=function.name,
            frame_bytes=-context.deepest_sp,
            store_granules=len(store_granules),
            full_store_granules=len(full_store_granules),
            aliased_granules=len(aliased),
            dead_store_sites=len(dead_stores),
            first_read_sites=len(first_reads),
            fill_avoid_bound=len(full_store_granules | aliased),
            writeback_kill_bound=len(store_granules | aliased),
        )
    return prediction
