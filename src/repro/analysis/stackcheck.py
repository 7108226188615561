"""SVF-safety passes: does compiled code obey stack discipline?

The Stack Value File's correctness and its entire performance win rest
on invariants the paper *assumes* compiled code upholds (Sections 2
and 3).  Each pass here checks one of them statically, on the
assembled :class:`Program`, before any simulation:

``sp-balance``
    Every path through a function restores ``$sp``: the net effect of
    the ``lda $sp, imm($sp)`` adjustments between entry and ``ret`` is
    zero, ``$sp`` is only ever written ``$sp``-relatively, and all
    paths into a join agree on the current ``$sp`` depth.  Violations
    break the SVF's TOS tracking outright — **error**.

``frame-bounds``
    Every ``±IMM($sp)`` / ``±IMM($fp)`` access stays inside the
    current frame allocation ``[$sp, entry-$sp)``.  An access below
    ``$sp`` or into the caller's frame would be morphed to the wrong
    SVF register (or corrupt another frame's words) — **error**.

``first-read``
    A frame slot read before any write on some path.  Stack semantics
    say a freshly allocated frame is uninitialized, so such a read
    forces the SVF to fill the word from the memory hierarchy — the
    paper's valid-bit machinery exists precisely because compiled
    code avoids this — **warning**.

``dead-store``
    A frame store never observed by any load before frame death
    (``ret``).  These are exactly the writebacks the SVF's dirty-bit
    + frame-death logic elides; reporting them quantifies, per static
    store, what Table 3's traffic reduction exploits — **info**.

``escape``
    A ``$sp``-derived address flowing into a general register (the
    paper's ``$gpr`` access class, which must be *re-routed* into the
    SVF after address calculation — info), passed to a callee (info),
    or stored outside the stack (memory the SVF cannot see —
    **warning**, since morphing is only sound if such aliases are
    re-routed dynamically).  One token dataflow answers it
    (:func:`escape_events`): every stack address carries the
    entry-relative offset it was taken at.  Lint renders its unseeded
    events; the certifier's summaries also run it seeded with the
    caller's argument registers.

All passes run intra-procedurally on the :mod:`repro.analysis.cfg`
graphs using the :mod:`repro.analysis.dataflow` solver.  Frame-slot
facts are canonicalized to *entry-relative* byte offsets (negative,
since the stack grows down), so they stay stable across the
prologue/epilogue ``$sp`` moves.  The byte-level facts of
``first-read`` and ``dead-store`` are int bit masks, one bit per
frame byte: :meth:`FrameContext.mask` shifts an offset by a
per-function bias that makes every offset the function touches a
non-negative bit, so a 16 KB local array is a 2 KB int rather than a
set of 16k offsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.analysis.cfg import (
    FunctionCFG,
    ProgramCFG,
    build_cfg,
)
from repro.analysis.dataflow import (
    BACKWARD,
    UNIVERSE,
    DataflowProblem,
    solve,
)
from repro.analysis.report import Diagnostic, Severity
from repro.isa.instructions import Instruction
from repro.isa.registers import (
    ARG_REGISTERS,
    FP,
    RA,
    SP,
    TEMP_REGISTERS,
    V0,
    ZERO,
    register_name,
)

PASS_CFG = "cfg"
PASS_SP = "sp-balance"
PASS_BOUNDS = "frame-bounds"
PASS_FIRST_READ = "first-read"
PASS_DEAD_STORE = "dead-store"
PASS_ESCAPE = "escape"

ALL_PASSES = (
    PASS_CFG, PASS_SP, PASS_BOUNDS, PASS_FIRST_READ, PASS_DEAD_STORE,
    PASS_ESCAPE,
)

#: ALU opcodes through which a stack address propagates (pointer
#: arithmetic); comparisons produce booleans and drop the taint.
_ADDRESS_PRESERVING_ALU = frozenset({
    "addq", "subq", "mulq", "divq", "remq", "and", "or", "xor", "bic",
    "sll", "srl", "sra",
})

#: Registers the callee may clobber — taint on them dies at a call.
_CALLER_SAVED = frozenset(TEMP_REGISTERS) | frozenset(ARG_REGISTERS) | {V0, RA}


class _Conflict:
    """Singleton lattice bottom for the ``$sp``-offset analysis."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<sp-conflict>"


CONFLICT = _Conflict()

_TOP = object()  # unvisited-block sentinel for the offset analysis


# ---------------------------------------------------------------------------
# $sp / $fp offset tracking (feeds sp-balance, frame-bounds, and the
# slot-canonicalization every later pass relies on)
# ---------------------------------------------------------------------------


def _offset_step(instruction: Instruction, fact):
    """Abstractly execute one instruction over an ``(sp, fp)`` fact.

    ``sp`` is the entry-relative stack-pointer offset (an int while
    tracked, :data:`CONFLICT` once lost); ``fp`` is the entry-relative
    frame-pointer offset or ``None`` while it still holds the caller's
    (unknown) value.
    """
    sp, fp = fact
    if instruction.is_sp_adjust:
        sp = CONFLICT if sp is CONFLICT else sp + instruction.imm
    elif instruction.writes_sp:
        sp = CONFLICT
    elif instruction.op == "lda" and instruction.rd == FP:
        if instruction.rb == SP and isinstance(sp, int):
            fp = sp + instruction.imm
        elif instruction.rb == FP and isinstance(fp, int):
            fp = fp + instruction.imm
        else:
            fp = None
    elif instruction.destination_register() == FP:
        fp = None  # e.g. the epilogue ``ldq $fp, ...`` restore
    return (sp, fp)


class _OffsetProblem(DataflowProblem):
    direction = "forward"

    def boundary(self, cfg):
        return (0, None)

    def top(self, cfg):
        return _TOP

    def meet(self, left, right):
        if left is _TOP:
            return right
        if right is _TOP:
            return left
        sp_left, fp_left = left
        sp_right, fp_right = right
        sp = sp_left if sp_left == sp_right else CONFLICT
        if sp_left is CONFLICT or sp_right is CONFLICT:
            sp = CONFLICT
        fp = fp_left if fp_left == fp_right else None
        return (sp, fp)

    def transfer(self, cfg, block, fact):
        if fact is _TOP:
            return _TOP
        for index in block.indices():
            fact = _offset_step(cfg.instruction(index), fact)
        return fact


@dataclass
class FrameContext:
    """Shared per-function facts the slot-level passes build on."""

    cfg: FunctionCFG
    #: entry-relative ``(sp, fp)`` fact *before* each instruction
    offsets: Dict[int, tuple] = field(default_factory=dict)
    #: ``(entry-relative offset, size)`` of each constant stack access
    slots: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    #: True when ``$sp`` is an int at every reachable instruction
    sp_tracked: bool = True
    #: entry-relative offsets whose address was taken (``lda`` off sp/fp)
    address_taken: Set[int] = field(default_factory=set)
    reachable: Set[int] = field(default_factory=set)
    deepest_sp: int = 0
    #: added to an entry-relative offset to give its bit in a byte mask
    bias: int = 0

    @property
    def aliased_floor(self) -> int:
        """Lowest entry-relative offset reachable through a taken address.

        Everything at or above this offset may be read or written via
        computed addresses (local arrays, escaped scalars) or by a
        callee holding an escaped pointer; slots strictly below it are
        *private* — only ever touched through constant ``$sp``/``$fp``
        displacements — and admit exact first-read/dead-store facts.
        """
        return min(self.address_taken) if self.address_taken else 0

    def slot(self, index: int) -> Optional[Tuple[int, int]]:
        """``(entry-relative offset, size)`` of a constant stack access.

        Returns None for non-memory instructions, unreachable ones, and
        accesses whose base is not a tracked ``$sp``/``$fp``.
        """
        return self.slots.get(index)

    def is_private(self, offset: int, size: int) -> bool:
        return offset + size <= self.aliased_floor

    def mask(self, offset: int, size: int) -> int:
        """Byte mask of the frame bytes ``[offset, offset + size)``."""
        return ((1 << size) - 1) << (offset + self.bias)


def analyze_frames(cfg: FunctionCFG) -> Tuple[FrameContext, List[Diagnostic]]:
    """Track ``$sp``/``$fp`` and run the sp-balance + frame-bounds passes."""
    context = FrameContext(cfg=cfg)
    diagnostics: List[Diagnostic] = []
    result = solve(cfg, _OffsetProblem())
    context.reachable = cfg.reachable_ids()

    def report(severity, pass_name, index, message):
        diagnostics.append(
            Diagnostic(severity, pass_name, cfg.name, index, message)
        )

    for block in cfg.blocks:
        if block.id not in context.reachable:
            continue
        # A join where predecessors disagree on the $sp depth is the
        # root cause of any CONFLICT; report it where it originates.
        pred_sp = [
            result.outputs[p][0]
            for p in block.predecessors
            if result.outputs[p] is not _TOP
        ]
        distinct = {d for d in pred_sp if isinstance(d, int)}
        if len(distinct) > 1:
            depths = ", ".join(str(d) for d in sorted(distinct))
            report(
                Severity.ERROR, PASS_SP, block.start,
                f"paths joining here disagree on $sp depth ({depths})",
            )

        fact = result.inputs[block.id]
        if fact is _TOP:
            fact = (0, None)
        for index in block.indices():
            context.offsets[index] = fact
            sp, fp = fact
            instruction = cfg.instruction(index)
            if instruction.is_mem:
                if instruction.rb == SP and isinstance(sp, int):
                    context.slots[index] = (
                        sp + instruction.imm, instruction.mem_size
                    )
                elif instruction.rb == FP and isinstance(fp, int):
                    context.slots[index] = (
                        fp + instruction.imm, instruction.mem_size
                    )
            _check_instruction_frame(
                context, instruction, index, sp, fp, report
            )
            if isinstance(sp, int):
                context.deepest_sp = min(context.deepest_sp, sp)
            fact = _offset_step(instruction, fact)

    context.sp_tracked = all(
        isinstance(context.offsets[index][0], int)
        for block in cfg.blocks
        if block.id in context.reachable
        for index in block.indices()
    )
    # Malformed code reaches above the entry level and below $sp, so
    # the bias covers every offset a mask is ever asked for.
    context.bias = -min(
        0, context.aliased_floor, context.deepest_sp,
        *(offset for offset, _size in context.slots.values()),
    )
    return context, diagnostics


def _check_instruction_frame(context, instruction, index, sp, fp, report):
    cfg = context.cfg
    # --- sp-balance -------------------------------------------------------
    if instruction.is_sp_adjust:
        if isinstance(sp, int) and sp + instruction.imm > 0:
            report(
                Severity.ERROR, PASS_SP, index,
                f"$sp adjusted above the function entry level "
                f"(net offset {sp + instruction.imm:+d})",
            )
    elif instruction.writes_sp:
        report(
            Severity.ERROR, PASS_SP, index,
            f"$sp written by non-$sp-relative '{instruction.op}'; "
            f"the SVF cannot track the top of stack",
        )
    if instruction.is_return:
        if isinstance(sp, int) and sp != 0:
            report(
                Severity.ERROR, PASS_SP, index,
                f"returns with unbalanced $sp (net offset {sp:+d}); "
                f"missing or wrong epilogue 'lda $sp' on this path",
            )
    # --- frame-bounds -----------------------------------------------------
    if instruction.is_mem and instruction.rb == SP:
        if isinstance(sp, int):
            _check_bounds(
                instruction, index, sp, sp + instruction.imm, report
            )
    elif instruction.is_mem and instruction.rb == FP:
        if isinstance(fp, int) and isinstance(sp, int):
            _check_bounds(
                instruction, index, sp, fp + instruction.imm, report
            )
        elif fp is None:
            report(
                Severity.WARNING, PASS_BOUNDS, index,
                "$fp-relative access but $fp is not derived from $sp "
                "here; frame bounds cannot be verified",
            )
    # --- address-taken bookkeeping (needs the same offset facts) ----------
    if (
        instruction.op == "lda"
        and instruction.rd not in (SP, FP)
        and instruction.rb in (SP, FP)
    ):
        base = sp if instruction.rb == SP else fp
        if isinstance(base, int):
            offset = base + instruction.imm
            context.address_taken.add(offset)
            if isinstance(sp, int) and not (sp <= offset <= 0):
                report(
                    Severity.WARNING, PASS_BOUNDS, index,
                    f"address of out-of-frame stack location taken "
                    f"(entry-relative offset {offset:+d})",
                )


def _check_bounds(instruction, index, sp, offset, report):
    """``offset`` is the entry-relative address of the access."""
    size = instruction.mem_size
    if sp == 0:
        report(
            Severity.ERROR, PASS_BOUNDS, index,
            f"'{instruction.op}' touches the stack with no allocated "
            f"frame ($sp still at the entry level)",
        )
        return
    if offset < sp:
        report(
            Severity.ERROR, PASS_BOUNDS, index,
            f"'{instruction.op}' accesses {sp - offset} byte(s) below "
            f"$sp (outside the live frame; the SVF treats that region "
            f"as dead)",
        )
    elif offset + size > 0:
        report(
            Severity.ERROR, PASS_BOUNDS, index,
            f"'{instruction.op}' overruns the frame into the caller's "
            f"frame by {offset + size} byte(s)",
        )


# ---------------------------------------------------------------------------
# first-read / dead-store: byte facts as int masks over FrameContext.mask
# ---------------------------------------------------------------------------


class _ByteMasks(DataflowProblem):
    """Gen/kill over frame-byte masks, the int twin of
    :class:`~repro.analysis.dataflow.SetProblem`.

    ``may=True`` meets with ``|`` from 0; ``may=False`` meets with
    ``&`` from :data:`UNIVERSE`.  ``step(context, index, mask)``
    returns one instruction's new mask.
    """

    may: bool = True

    def __init__(self, context: FrameContext):
        self.context = context

    def boundary(self, cfg):
        return 0

    def top(self, cfg):
        return 0 if self.may else UNIVERSE

    def meet(self, left, right):
        if self.may:
            return left | right
        if left is UNIVERSE:
            return right
        if right is UNIVERSE:
            return left
        return left & right

    def transfer(self, cfg, block, fact):
        value = 0 if fact is UNIVERSE else fact
        indices = block.indices()
        if self.direction == BACKWARD:
            indices = reversed(indices)
        for index in indices:
            value = self.step(self.context, index, value)
        return value


def _written_step(context: FrameContext, index: int, written: int) -> int:
    instruction = context.cfg.instruction(index)
    slot = context.slot(index)
    if instruction.is_store and slot is not None:
        return written | context.mask(*slot)
    if instruction.is_store or instruction.is_call:
        # A computed-address store, or a callee holding an escaped
        # pointer, may have initialized any aliased slot.
        floor = context.aliased_floor
        if floor < 0:
            return written | context.mask(floor, -floor)
    return written


class _WrittenBytes(_ByteMasks):
    """Must-analysis: bytes of the frame definitely written so far."""

    may = False
    direction = "forward"
    step = staticmethod(_written_step)


def first_read_pass(context: FrameContext) -> List[Diagnostic]:
    """Flag frame reads that can happen before any write (forces a fill)."""
    cfg = context.cfg
    result = solve(cfg, _WrittenBytes(context))
    diagnostics: List[Diagnostic] = []
    for block in cfg.blocks:
        if block.id not in context.reachable:
            continue
        written = result.inputs[block.id]
        if written is UNIVERSE:
            written = 0
        for index in block.indices():
            instruction = cfg.instruction(index)
            slot = context.slot(index)
            if instruction.is_load and slot is not None:
                if context.mask(*slot) & ~written:
                    diagnostics.append(Diagnostic(
                        Severity.WARNING, PASS_FIRST_READ, cfg.name, index,
                        f"frame slot {slot[0]:+d} read before any write on "
                        f"some path; the SVF must fill this word from "
                        f"memory (stack code is expected to write first)",
                    ))
            written = _written_step(context, index, written)
    return diagnostics


def _live_step(context: FrameContext, index: int, live: int) -> int:
    slot = context.slot(index)
    if slot is None or not context.is_private(*slot):
        return live
    instruction = context.cfg.instruction(index)
    if instruction.is_load:
        return live | context.mask(*slot)
    if instruction.is_store:
        return live & ~context.mask(*slot)
    return live


class _LiveBytes(_ByteMasks):
    """May-analysis (backward): private frame bytes later read."""

    may = True
    direction = BACKWARD
    step = staticmethod(_live_step)


def dead_store_pass(context: FrameContext) -> List[Diagnostic]:
    """Flag frame stores whose bytes are never read before frame death."""
    cfg = context.cfg
    result = solve(cfg, _LiveBytes(context))
    diagnostics: List[Diagnostic] = []
    for block in cfg.blocks:
        if block.id not in context.reachable:
            continue
        live = result.inputs[block.id]
        for index in reversed(block.indices()):
            instruction = cfg.instruction(index)
            slot = context.slot(index)
            if (
                instruction.is_store
                and slot is not None
                and context.is_private(*slot)
                and not live & context.mask(*slot)
            ):
                diagnostics.append(Diagnostic(
                    Severity.INFO, PASS_DEAD_STORE, cfg.name, index,
                    f"store to frame slot {slot[0]:+d} is never read "
                    f"before frame death; the SVF's dirty/valid bits "
                    f"elide this writeback entirely",
                ))
            live = _live_step(context, index, live)
    return diagnostics


# ---------------------------------------------------------------------------
# escape: $sp-derived values leaving the $sp access class, as taint tokens
# ---------------------------------------------------------------------------

#: Token for a stack address whose entry-relative offset is unknown
#: (taken while ``$sp`` tracking was lost).
UNKNOWN = "?"

#: A taint token: the entry-relative offset an address was taken at,
#: ``UNKNOWN``, or ``("caller", arg_register)`` for an address received
#: from the caller in that argument register.
Token = Union[int, str, Tuple[str, int]]


@dataclass(frozen=True)
class EscapeEvents:
    """Escape-relevant events of one analysis variant of one function.

    ``gpr_sites``: computed-base stack accesses (index, tokens of the
    base register).  ``unclean``: stores of a stack address to memory
    the frame tracking cannot name (index, tokens of the stored
    value).  ``passes``: argument registers carrying stack addresses
    at call sites (index, callee or None, argument register, tokens).
    """

    gpr_sites: Tuple[Tuple[int, Tuple[Token, ...]], ...] = ()
    unclean: Tuple[Tuple[int, Tuple[Token, ...]], ...] = ()
    passes: Tuple[Tuple[int, Optional[str], int, Tuple[Token, ...]], ...] = ()


_STACK_BASES = (SP, FP)


class _TokenState:
    """Mutable (reg -> tokens, slot offset -> tokens) working state."""

    __slots__ = ("regs", "slots")

    def __init__(self, regs: Dict[int, FrozenSet[Token]],
                 slots: Dict[int, FrozenSet[Token]]):
        self.regs = regs
        self.slots = slots

    @classmethod
    def thaw(cls, fact) -> "_TokenState":
        regs: Dict[int, Set[Token]] = {}
        slots: Dict[int, Set[Token]] = {}
        for reg, token in fact[0]:
            regs.setdefault(reg, set()).add(token)
        for offset, token in fact[1]:
            slots.setdefault(offset, set()).add(token)
        return cls(
            {r: frozenset(t) for r, t in regs.items()},
            {o: frozenset(t) for o, t in slots.items()},
        )

    def freeze(self):
        return (
            frozenset(
                (reg, token)
                for reg, tokens in self.regs.items()
                for token in tokens
            ),
            frozenset(
                (offset, token)
                for offset, tokens in self.slots.items()
                for token in tokens
            ),
        )

    def tokens(self, register: Optional[int]) -> FrozenSet[Token]:
        if register is None:
            return frozenset()
        return self.regs.get(register, frozenset())

    def set_reg(self, register: Optional[int],
                tokens: FrozenSet[Token]) -> None:
        if register is None or register in _STACK_BASES or register == ZERO:
            return
        if tokens:
            self.regs[register] = tokens
        else:
            self.regs.pop(register, None)


def _token_step(context: FrameContext, index: int, state: _TokenState,
                site_callee, events: Optional[dict]) -> None:
    """Abstractly execute one instruction over the token state.

    ``events`` (when not None) collects gpr/unclean/passes events for
    the reporting walk; the fixpoint solve passes None.
    """
    instruction = context.cfg.instruction(index)
    op = instruction.op
    sp, fp = context.offsets.get(index, (None, None))

    def base_token(register: int) -> FrozenSet[Token]:
        base = sp if register == SP else fp
        offset = (
            base + instruction.imm if isinstance(base, int) else None
        )
        return frozenset({offset if offset is not None else UNKNOWN})

    if op == "lda":
        if instruction.rb in _STACK_BASES:
            state.set_reg(instruction.rd, base_token(instruction.rb))
        else:
            state.set_reg(instruction.rd, state.tokens(instruction.rb))
    elif instruction.is_load:
        slot = context.slot(index)
        if slot is not None:
            state.set_reg(
                instruction.rd, state.slots.get(slot[0], frozenset())
            )
        else:
            # Computed-base or global load: provenance unknown, so
            # clear (a stack address laundered through memory was
            # already flagged unclean at the store).
            if events is not None and instruction.rb not in _STACK_BASES:
                tokens = state.tokens(instruction.rb)
                if tokens:
                    events["gpr"].append((index, tuple(sorted(
                        tokens, key=repr
                    ))))
            state.set_reg(instruction.rd, frozenset())
        return
    elif instruction.is_store:
        if instruction.rd in _STACK_BASES:
            base = sp if instruction.rd == SP else fp
            value_tokens = frozenset(
                {base if isinstance(base, int) else UNKNOWN}
            )
        else:
            value_tokens = state.tokens(instruction.rd)
        slot = context.slot(index)
        if slot is not None:
            if value_tokens:
                state.slots[slot[0]] = value_tokens
            else:
                state.slots.pop(slot[0], None)
        else:
            if events is not None:
                if instruction.rb not in _STACK_BASES:
                    base_tokens = state.tokens(instruction.rb)
                    if base_tokens:
                        events["gpr"].append((index, tuple(sorted(
                            base_tokens, key=repr
                        ))))
                if value_tokens:
                    events["unclean"].append((index, tuple(sorted(
                        value_tokens, key=repr
                    ))))
        return
    elif op in _ADDRESS_PRESERVING_ALU:
        tokens: Set[Token] = set()
        for source in instruction.source_registers():
            if source in _STACK_BASES:
                base = sp if source == SP else fp
                tokens.add(base if isinstance(base, int) else UNKNOWN)
            else:
                tokens.update(state.tokens(source))
        state.set_reg(instruction.rd, frozenset(tokens))
    elif instruction.op_class.name in ("IALU", "IMULT"):
        state.set_reg(instruction.destination_register(), frozenset())
    elif instruction.is_call:
        if events is not None:
            callee = site_callee.get(index)
            for register in ARG_REGISTERS:
                tokens = state.tokens(register)
                if tokens:
                    events["passes"].append((
                        index, callee, register,
                        tuple(sorted(tokens, key=repr)),
                    ))
        for register in _CALLER_SAVED:
            state.regs.pop(register, None)


class _TokenProblem(DataflowProblem):
    direction = "forward"

    def __init__(self, context: FrameContext, seeded: bool, site_callee):
        self.context = context
        self.seeded = seeded
        self.site_callee = site_callee

    def boundary(self, cfg):
        if not self.seeded:
            return (frozenset(), frozenset())
        return (
            frozenset(
                (register, ("caller", register))
                for register in ARG_REGISTERS
            ),
            frozenset(),
        )

    def top(self, cfg):
        return (frozenset(), frozenset())

    def meet(self, left, right):
        return (left[0] | right[0], left[1] | right[1])

    def transfer(self, cfg, block, fact):
        state = _TokenState.thaw(fact)
        for index in block.indices():
            _token_step(self.context, index, state, self.site_callee, None)
        return state.freeze()


def escape_events(context: FrameContext, site_callee: Dict[int, Optional[str]],
                  seeded: bool) -> EscapeEvents:
    """Run one escape-analysis variant and collect its events.

    ``site_callee`` maps call-site indices to callee names (None for an
    indirect call); it only labels ``passes`` events, so lint passes an
    empty map.  ``seeded`` taints every argument register at entry with
    a ``("caller", register)`` token.
    """
    cfg = context.cfg
    problem = _TokenProblem(context, seeded, site_callee)
    result = solve(cfg, problem)
    events = {"gpr": [], "unclean": [], "passes": []}
    for block in cfg.blocks:
        if block.id not in context.reachable:
            continue
        fact = result.inputs[block.id]
        state = _TokenState.thaw(fact)
        for index in block.indices():
            _token_step(context, index, state, site_callee, events)
    return EscapeEvents(
        gpr_sites=tuple(events["gpr"]),
        unclean=tuple(events["unclean"]),
        passes=tuple(events["passes"]),
    )


def escape_pass(context: FrameContext) -> List[Diagnostic]:
    """Flag stack addresses that escape to registers, calls or memory.

    Renders the unseeded :func:`escape_events` in instruction order;
    at one instruction the computed-base info comes first, then the
    store warning, then one info per argument register in register
    order (``--max-info`` keeps the first infos emitted).
    """
    cfg = context.cfg
    events = escape_events(context, {}, seeded=False)
    rows = [
        (index, 0, Severity.INFO,
         f"stack access through computed base "
         f"${register_name(cfg.instruction(index).rb)}: the paper's $gpr "
         f"class; the SVF must re-route it after address calculation")
        for index, _tokens in events.gpr_sites
    ]
    rows += [
        (index, 1, Severity.WARNING,
         "stack address stored to non-stack memory; aliases through it "
         "are invisible to static morphing and must hit the SVF's "
         "re-route path")
        for index, _tokens in events.unclean
    ]
    rows += [
        (index, 2, Severity.INFO,
         f"stack address passed to callee in ${register_name(register)}; "
         f"the callee's accesses to it are $gpr-class")
        for index, _callee, register, _tokens in events.passes
    ]
    # Stable: the passes of one call stay in register order.
    rows.sort(key=lambda row: row[:2])
    return [
        Diagnostic(severity, PASS_ESCAPE, cfg.name, index, message)
        for index, _rank, severity, message in rows
    ]


# ---------------------------------------------------------------------------
# structural pass + driver
# ---------------------------------------------------------------------------


def structure_pass(pcfg: ProgramCFG) -> List[Diagnostic]:
    """CFG anomalies and unreachable code, as diagnostics."""
    severity_of = {
        "escaping-branch": Severity.ERROR,
        "fallthrough-exit": Severity.ERROR,
        "indirect-jump": Severity.WARNING,
        "indirect-call": Severity.WARNING,
    }
    diagnostics = [
        Diagnostic(
            severity_of.get(anomaly.kind, Severity.WARNING),
            PASS_CFG, anomaly.function, anomaly.index, anomaly.message,
        )
        for anomaly in pcfg.anomalies
    ]
    for function in pcfg.functions.values():
        reachable = function.reachable_ids()
        for block in function.blocks:
            if block.id not in reachable:
                diagnostics.append(Diagnostic(
                    Severity.INFO, PASS_CFG, function.name, block.start,
                    f"unreachable block of {len(block)} instruction(s)",
                ))
    diagnostics.extend(_dead_function_pass(pcfg))
    return diagnostics


def _dead_function_pass(pcfg: ProgramCFG) -> List[Diagnostic]:
    """Functions unreachable from the program entry in the call graph.

    A defined-but-never-called function is dead code: its frame is
    never allocated, so its stack behaviour contributes nothing to SVF
    traffic.  Indirect calls make the call graph incomplete, so the
    pass stays silent when any are present.
    """
    if any(a.kind == "indirect-call" for a in pcfg.anomalies):
        return []
    entry_index = pcfg.program.labels.get(pcfg.program.entry, 0)
    root = None
    for name, function in pcfg.functions.items():
        if function.start == entry_index:
            root = name
            break
    if root is None:
        return []
    live = {root}
    work = [root]
    while work:
        for callee in pcfg.call_graph.get(work.pop(), ()):
            if callee not in live:
                live.add(callee)
                work.append(callee)
    return [
        Diagnostic(
            Severity.INFO, PASS_CFG, function.name, function.start,
            f"function {function.name!r} is never called "
            f"({function.end - function.start} dead instruction(s))",
        )
        for function in pcfg.functions.values()
        if function.name not in live
    ]


def check_function(cfg: FunctionCFG) -> List[Diagnostic]:
    """Run every slot-level pass over one function."""
    context, diagnostics = analyze_frames(cfg)
    if context.sp_tracked:
        # The slot passes canonicalize on the tracked $sp offsets; once
        # those are lost the sp-balance errors already tell the story.
        diagnostics.extend(first_read_pass(context))
        diagnostics.extend(dead_store_pass(context))
        diagnostics.extend(escape_pass(context))
    return diagnostics


def check_program(program, pcfg: Optional[ProgramCFG] = None) -> List[Diagnostic]:
    """All five passes over every function of ``program``."""
    if pcfg is None:
        pcfg = build_cfg(program)
    diagnostics = structure_pass(pcfg)
    for function in pcfg.functions.values():
        diagnostics.extend(check_function(function))
    return diagnostics
