"""Optimizer pipeline over assembled programs (``-O1``).

:func:`optimize_program` drives the four dataflow passes of
:mod:`repro.lang.opt.passes` to a fixpoint:

1. repeat { redundant-load forwarding; dead-store elimination;
   register dead-code elimination; rebuild } until a round makes no
   edits — each rebuild invalidates the analyses, so the loop re-solves
   from scratch per round;
2. run frame-slot coalescing once at the fixpoint (it creates new
   store-overwrite patterns), then return to step 1 to clean up.

Soundness gating is **per function**, fed by the certifier's
interprocedural facts (:mod:`repro.analysis.summaries`):

* a function is *register-eligible* when it and every transitive
  callee are individually analyzable — no CFG anomaly that breaks edge
  reconstruction, no ``sp-balance``/``frame-bounds`` error, ``$sp``
  tracked throughout, and no indirect call anywhere below it (an
  unknown callee could unbalance ``$sp`` and corrupt the caller's
  frame facts).  Ineligible functions are simply left alone; the rest
  of the program still optimizes.
* the two memory-image-changing passes (dead stores, coalescing)
  additionally require the *whole live program* to be free of
  first-read warnings and unclean escapes: a frame's dead bytes are
  observable by any later callee that reads uninitialized slots, and
  an unclean slot (address escaped to non-stack memory, per the
  certifier's CleanStack-style taint) may be aliased from anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.callgraph import build_call_graph
from repro.analysis.cfg import FATAL_ANOMALIES, build_cfg
from repro.analysis.report import Severity
from repro.analysis.stackcheck import (
    FrameContext,
    analyze_frames,
    first_read_pass,
)
from repro.analysis.summaries import summarize_program
from repro.isa.instructions import Program
from repro.lang.opt.ir import EditSet, rebuild_program
from repro.lang.opt.passes import (
    coalesce_slots_pass,
    dead_code_pass,
    dead_store_elimination,
    forward_loads_pass,
)

__all__ = ["OptStats", "optimize_program"]


@dataclass
class OptStats:
    """What the pipeline did, for reporting and tests."""

    rounds: int = 0
    loads_forwarded: int = 0
    loads_deleted: int = 0
    dead_stores_deleted: int = 0
    dead_code_deleted: int = 0
    slots_coalesced: int = 0
    #: True when the whole program was left untouched as unanalyzable.
    skipped: bool = False
    #: True when first-read / unclean-escape hazards disabled the
    #: memory-image passes.
    memory_passes_disabled: bool = False
    #: functions left unoptimized by the per-function eligibility gate
    functions_skipped: int = 0

    @property
    def instructions_removed(self) -> int:
        return (
            self.loads_deleted
            + self.dead_stores_deleted
            + self.dead_code_deleted
        )


def _eligibility(program: Program) -> Tuple[Dict[str, bool], bool]:
    """(register-eligible per function, memory passes allowed).

    Computed once per :func:`optimize_program` call on the input
    program: the passes preserve CFG structure, ``$sp`` balance and
    slot liveness, so eligibility cannot change across rounds.
    """
    pcfg = build_cfg(program)
    graph = build_call_graph(pcfg)
    summary = summarize_program(pcfg, graph)

    fatal = {
        anomaly.function
        for anomaly in pcfg.anomalies
        if anomaly.kind in FATAL_ANOMALIES
    }
    self_ok = {
        name: (
            name not in fatal
            and function_summary.sp_tracked
            and function_summary.error_count == 0
        )
        for name, function_summary in summary.functions.items()
    }

    register_ok: Dict[str, bool] = {}
    for name in summary.functions:
        ok = self_ok[name] and name not in graph.unknown_callers
        if ok:
            for callee in graph.transitive_callees(name):
                if (
                    not self_ok.get(callee, False)
                    or callee in graph.unknown_callers
                ):
                    ok = False
                    break
        register_ok[name] = ok

    # Memory-image hazards are program-wide: a removed dead store is
    # observable by any later frame that reads uninitialized slots,
    # and an unclean slot may be aliased from any function.  Dead
    # functions cannot observe anything, so only the live set counts —
    # unless indirect calls make liveness itself uncertain.
    if graph.unknown_callers:
        live = set(summary.functions)
    else:
        live = summary.live()
    memory_safe = not any(
        summary.functions[name].first_reads
        or summary.functions[name].has_unclean
        for name in live
    )
    return register_ok, memory_safe


def _analyze(program: Program, register_ok: Dict[str, bool]
             ) -> List[FrameContext]:
    """Fresh frame contexts for the eligible functions of ``program``.

    Re-checks each function defensively: if an edit somehow broke
    balance or tracking, the function drops out for the round instead
    of being optimized on bad facts.
    """
    pcfg = build_cfg(program)
    contexts: List[FrameContext] = []
    for name, function in pcfg.functions.items():
        if not register_ok.get(name, False):
            continue
        context, diagnostics = analyze_frames(function)
        if not context.sp_tracked or any(
            d.severity is Severity.ERROR for d in diagnostics
        ):
            continue
        contexts.append(context)
    return contexts


def optimize_program(
    program: Program, max_rounds: int = 10
) -> Tuple[Program, OptStats]:
    """Run the ``-O1`` pipeline; returns the new program and stats.

    The input program is never mutated; when no optimization applies it
    is returned as-is.
    """
    stats = OptStats()
    register_ok, memory_safe = _eligibility(program)
    stats.functions_skipped = sum(
        1 for eligible in register_ok.values() if not eligible
    )
    if not any(register_ok.values()):
        stats.skipped = True
        return program, stats
    if not memory_safe:
        stats.memory_passes_disabled = True

    coalesced = False
    while stats.rounds < max_rounds:
        contexts = _analyze(program, register_ok)
        if not contexts:
            stats.skipped = stats.rounds == 0
            break
        # Defensive per-round re-check: the passes cannot introduce
        # first-reads, but bad facts here would silently corrupt code.
        round_memory_safe = memory_safe and not any(
            first_read_pass(context) for context in contexts
        )
        edits = EditSet()
        for context in contexts:
            counts = forward_loads_pass(context, edits)
            stats.loads_forwarded += counts["forwarded"]
            stats.loads_deleted += counts["deleted"]
            if round_memory_safe:
                stats.dead_stores_deleted += dead_store_elimination(
                    context, edits
                )
            stats.dead_code_deleted += dead_code_pass(context, edits)
        if not edits and round_memory_safe and not coalesced:
            coalesced = True
            for context in contexts:
                stats.slots_coalesced += coalesce_slots_pass(context, edits)
        if not edits:
            break
        program = rebuild_program(program, edits)
        stats.rounds += 1
    return program, stats
