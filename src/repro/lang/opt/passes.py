"""Dataflow-driven optimization passes over assembled programs.

All four passes run on the :mod:`repro.analysis` infrastructure — the
reconstructed :class:`FunctionCFG`, the worklist solver, and the
entry-relative frame-slot canonicalization of :class:`FrameContext` —
so the optimizer proves its facts with exactly the machinery the lint
passes use to check them.

``forward-slots``
    Redundant-load forwarding.  A forward must-analysis tracks
    ``(entry-relative quad offset, register)`` pairs that are known to
    hold the slot's current value (established by a ``stq`` or ``ldq``
    of that slot).  A later ``ldq`` of an available slot becomes a
    register move, or disappears entirely when its own destination
    already holds the value (the reload-after-spill pattern).

``dead-stores``
    Liveness-driven dead-store elimination for private frame slots,
    reusing the lint ``dead-store`` pass verbatim: every store it
    proves unobservable before frame death is deleted.  This is the
    static twin of the SVF's dirty-bit writeback elision — the
    optimizer removes at compile time what the hardware would kill at
    frame death.

``dead-code``
    Backward register liveness over the full register file; effect-free
    instructions (``lda``, ALU except the trapping ``divq``/``remq``,
    loads from tracked frame slots) whose destination is dead are
    deleted.  Mops up the moves and address computations the first two
    passes orphan.

``coalesce-slots``
    Frame-slot coalescing: private, whole-quad scalar slots whose live
    ranges never overlap are merged onto one representative offset,
    shrinking the frame's hot footprint (the frame allocation itself
    is left untouched, so frame-bounds discipline is preserved).  Its
    byte liveness is the lint ``dead-store`` problem, solved as is:
    one int bit mask per fact, bit ``offset + bias`` per frame byte
    (:meth:`FrameContext.mask`).

Passes that change the memory image (``dead-stores``,
``coalesce-slots``) are gated on a program-wide precondition: every
function analyzable, no frame-bounds/sp-balance errors, and no
first-read warnings anywhere.  Under that discipline — which is also
the SVF paper's own assumption about compiled stack code — a frame
slot's lifetime ends at frame death and no later activation can
observe stale bytes, so dropping or relocating dead stores is
invisible to the program.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.cfg import FunctionCFG
from repro.analysis.dataflow import BACKWARD, SetProblem, solve
from repro.analysis.stackcheck import (
    FrameContext,
    _live_step,
    _LiveBytes,
    dead_store_pass,
)
from repro.isa.instructions import Instruction, OpClass
from repro.isa.registers import (
    ARG_REGISTERS,
    FP,
    GP,
    RA,
    SP,
    TEMP_REGISTERS,
    V0,
    ZERO,
)
from repro.lang.opt.ir import EditSet

#: Registers a callee may clobber: pairs bound to them die at calls.
_CALLER_SAVED = (
    frozenset(TEMP_REGISTERS) | frozenset(ARG_REGISTERS) | {V0, RA}
)

#: Registers assumed live at every function exit: everything the
#: calling convention lets the caller observe (return value, callee
#: saves, the stack/frame/global pointers, the return address).
_EXIT_LIVE = frozenset(range(32)) - frozenset(TEMP_REGISTERS) - frozenset(
    ARG_REGISTERS
) - {ZERO} | {V0}


def _is_quad_slot(slot: Optional[Tuple[int, int]]) -> bool:
    return slot is not None and slot[1] == 8 and slot[0] % 8 == 0


# ---------------------------------------------------------------------------
# forward-slots: redundant-load forwarding
# ---------------------------------------------------------------------------


class _AvailablePairs(SetProblem):
    """Must-analysis: ``(quad offset, register)`` pairs where the
    register is known to hold the slot's current value."""

    may = False
    direction = "forward"

    def __init__(self, context: FrameContext):
        self.context = context

    def step(self, cfg, index, value):
        _available_step(self.context, index, value)


def _kill_register(value: set, register: int) -> None:
    for pair in [p for p in value if p[1] == register]:
        value.discard(pair)


def _kill_overlap(value: set, offset: int, size: int) -> None:
    for pair in [
        p for p in value
        if p[0] < offset + size and offset < p[0] + 8
    ]:
        value.discard(pair)


def _kill_exposed(context: FrameContext, value: set) -> None:
    """Kill pairs whose slot is reachable through a taken address."""
    for pair in [
        p for p in value if not context.is_private(p[0], 8)
    ]:
        value.discard(pair)


def _available_step(context: FrameContext, index: int, value: set) -> None:
    instruction = context.cfg.instruction(index)
    if instruction.is_store:
        slot = context.slot(index)
        if slot is None:
            # Computed-address store: may hit any aliased slot.
            _kill_exposed(context, value)
            return
        _kill_overlap(value, slot[0], slot[1])
        if _is_quad_slot(slot):
            value.add((slot[0], instruction.rd))
        return
    if instruction.is_load:
        _kill_register(value, instruction.rd)
        slot = context.slot(index)
        if _is_quad_slot(slot) and instruction.rd != ZERO:
            value.add((slot[0], instruction.rd))
        return
    if instruction.is_call:
        # The callee may clobber caller-saved registers, write aliased
        # slots through escaped pointers, and overwrite anything below
        # the current $sp with its own frame.
        for register in _CALLER_SAVED:
            _kill_register(value, register)
        _kill_exposed(context, value)
        sp, _fp = context.offsets.get(index, (None, None))
        if isinstance(sp, int):
            for pair in [p for p in value if p[0] < sp]:
                value.discard(pair)
        return
    destination = instruction.destination_register()
    if destination is not None:
        _kill_register(value, destination)


def forward_loads_pass(context: FrameContext, edits: EditSet) -> Dict[str, int]:
    """Rewrite redundant quad loads of available frame slots."""
    cfg = context.cfg
    result = solve(cfg, _AvailablePairs(context))
    reachable = context.reachable
    counts = {"forwarded": 0, "deleted": 0}
    for block in cfg.blocks:
        if block.id not in reachable:
            continue
        fact = result.inputs[block.id]
        value = set() if fact is None else set(fact)
        for index in block.indices():
            instruction = cfg.instruction(index)
            slot = context.slot(index)
            if (
                instruction.is_load
                and _is_quad_slot(slot)
                and instruction.rd != ZERO
            ):
                holders = sorted(
                    register for offset, register in value
                    if offset == slot[0]
                )
                if instruction.rd in holders:
                    # The destination already holds the value: the
                    # reload-after-spill pattern.  Drop the load.
                    edits.delete(index)
                    counts["deleted"] += 1
                elif holders:
                    edits.replace(index, Instruction(
                        "addq",
                        ra=holders[0],
                        imm=0,
                        rd=instruction.rd,
                    ))
                    counts["forwarded"] += 1
            _available_step(context, index, value)
    return counts


# ---------------------------------------------------------------------------
# dead-stores: writebacks the SVF would kill, removed statically
# ---------------------------------------------------------------------------


def dead_store_elimination(context: FrameContext, edits: EditSet) -> int:
    """Delete every store the lint ``dead-store`` pass proves dead."""
    deleted = 0
    for diagnostic in dead_store_pass(context):
        edits.delete(diagnostic.index)
        deleted += 1
    return deleted


# ---------------------------------------------------------------------------
# dead-code: effect-free instructions with dead destinations
# ---------------------------------------------------------------------------


class _LiveRegisters(SetProblem):
    """May-analysis (backward): registers whose value is still needed."""

    may = True
    direction = BACKWARD

    def boundary(self, cfg):
        return _EXIT_LIVE

    def step(self, cfg, index, value):
        _live_register_step(cfg.instruction(index), value)


def _live_register_step(instruction: Instruction, value: set) -> None:
    if instruction.is_call:
        # The callee may read its argument registers and everything
        # addressed off the stack/global pointers; its writes to $ra
        # and $v0 are not treated as kills (conservative).
        value.update(ARG_REGISTERS)
        value.update((SP, FP, GP))
    else:
        destination = instruction.destination_register()
        if destination is not None:
            value.discard(destination)
    value.update(instruction.source_registers())


def _deletable_without_side_effects(
    context: FrameContext, index: int, instruction: Instruction
) -> bool:
    if instruction.op in ("divq", "remq"):
        return False  # may trap on a zero divisor
    if instruction.op_class in (OpClass.IALU, OpClass.IMULT):
        return True  # includes lda
    if instruction.is_load:
        # Only loads from tracked constant frame slots are provably
        # safe to drop; a computed address could fault.
        return context.slot(index) is not None
    return False


def dead_code_pass(context: FrameContext, edits: EditSet) -> int:
    """Delete effect-free instructions whose destination is dead."""
    cfg = context.cfg
    result = solve(cfg, _LiveRegisters())
    deleted = 0
    for block in cfg.blocks:
        if block.id not in context.reachable:
            continue
        live = set(result.inputs[block.id])
        for index in reversed(list(block.indices())):
            instruction = cfg.instruction(index)
            destination = instruction.destination_register()
            if (
                destination is not None
                and destination not in live
                and _deletable_without_side_effects(
                    context, index, instruction
                )
            ):
                edits.delete(index)
                deleted += 1
                # A deleted instruction reads nothing: skip its step so
                # whole dead chains fall in one walk.
                continue
            _live_register_step(instruction, live)
    return deleted


# ---------------------------------------------------------------------------
# coalesce-slots: merge disjointly-live private quad slots
# ---------------------------------------------------------------------------


def _coalesce_candidates(
    context: FrameContext,
) -> Tuple[Set[int], Dict[int, List[int]]]:
    """Offsets eligible for merging and their access sites.

    A quad offset qualifies when every access to its bytes is a
    whole-quad constant access to a private slot — a scalar local or
    spill slot, never an array element or a partially-written word —
    made at the frame's full depth, so a remapped displacement can
    never reach below ``$sp`` in code that moves ``$sp`` mid-function.
    """
    accesses: Dict[int, List[int]] = defaultdict(list)
    partial_bytes = 0
    ineligible: Set[int] = set()
    for block in context.cfg.blocks:
        for index in block.indices():
            instruction = context.cfg.instruction(index)
            if not instruction.is_mem:
                continue
            slot = context.slot(index)
            if slot is None or not context.is_private(*slot):
                continue
            if _is_quad_slot(slot):
                accesses[slot[0]].append(index)
                sp, _fp = context.offsets.get(index, (None, None))
                if sp != context.deepest_sp:
                    ineligible.add(slot[0])
            else:
                partial_bytes |= context.mask(*slot)
    candidates = {
        offset for offset in accesses
        if offset not in ineligible
        and not partial_bytes & context.mask(offset, 8)
    }
    return candidates, accesses


def coalesce_slots_pass(context: FrameContext, edits: EditSet) -> int:
    """Merge disjointly-live candidate slots onto representatives."""
    cfg = context.cfg
    candidates, accesses = _coalesce_candidates(context)
    if len(candidates) < 2:
        return 0
    liveness = solve(cfg, _LiveBytes(context))

    # A slot live into the function entry is read before any write on
    # some path; relocating it would change which bytes that read sees.
    entry_live = liveness.outputs[cfg.entry.id]
    candidates = {
        offset for offset in candidates
        if not entry_live & context.mask(offset, 8)
    }
    if len(candidates) < 2:
        return 0

    # Def-point interference: a store into one candidate while another
    # candidate's bytes are still live-after means their live ranges
    # overlap.  With no read-before-write paths (checked above) every
    # live range starts at a store, so this catches every overlap.
    interference: Set[Tuple[int, int]] = set()
    for block in cfg.blocks:
        if block.id not in context.reachable:
            continue
        live = liveness.inputs[block.id]
        for index in reversed(block.indices()):
            instruction = cfg.instruction(index)
            slot = context.slot(index)
            if (
                instruction.is_store
                and _is_quad_slot(slot)
                and slot[0] in candidates
            ):
                for other in candidates:
                    if other != slot[0] and live & context.mask(other, 8):
                        interference.add(
                            (min(slot[0], other), max(slot[0], other))
                        )
            live = _live_step(context, index, live)

    # Greedy assignment in deterministic (deepest-first) order.
    groups: List[List[int]] = []
    assignment: Dict[int, int] = {}
    for offset in sorted(candidates):
        for group in groups:
            if all(
                (min(offset, member), max(offset, member))
                not in interference
                for member in group
            ):
                group.append(offset)
                assignment[offset] = group[0]
                break
        else:
            groups.append([offset])
            assignment[offset] = offset

    merged = 0
    for offset, representative in assignment.items():
        if representative == offset:
            continue
        merged += 1
        delta = representative - offset
        for index in accesses[offset]:
            instruction = cfg.instruction(index)
            edits.replace(index, dataclasses.replace(
                instruction, imm=instruction.imm + delta
            ))
    return merged
