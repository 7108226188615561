"""The five SVF-safety passes on hand-written assembly.

``TestByteMaskFacts`` also holds the bit-mask first-read and dead-store
facts to a frozenset-of-offsets reference on drawn assembly, the only
cover for frame offsets outside ``[deepest $sp, entry)``.
``TestEscapeTokens`` holds lint's rendering of the token escape
dataflow to a boolean taint reference on drawn assembly.
"""

from hypothesis import given, settings, strategies as st

from repro.analysis import Severity, build_cfg, lint_assembly
from repro.analysis.dataflow import (
    BACKWARD,
    FORWARD,
    DataflowProblem,
    SetProblem,
    solve,
)
from repro.analysis.stackcheck import (
    _ADDRESS_PRESERVING_ALU,
    _CALLER_SAVED,
    PASS_BOUNDS,
    PASS_CFG,
    PASS_DEAD_STORE,
    PASS_ESCAPE,
    PASS_FIRST_READ,
    PASS_SP,
    analyze_frames,
    dead_store_pass,
    first_read_pass,
)
from repro.isa import assemble
from repro.isa.registers import ARG_REGISTERS, FP, SP, register_name

CLEAN = """
.text
main:
    lda   sp, -32(sp)
    stq   ra, 0(sp)
    stq   a0, 8(sp)
    ldq   t0, 8(sp)
    addq  t0, 1, t0
    stq   t0, 8(sp)
    ldq   t1, 8(sp)
    print t1
    ldq   ra, 0(sp)
    lda   sp, 32(sp)
    ret
"""


def _passes(report, pass_name, severity=None):
    return [
        d for d in report.diagnostics
        if d.pass_name == pass_name
        and (severity is None or d.severity is severity)
    ]


class TestCleanCode:
    def test_no_errors_or_warnings(self):
        report = lint_assembly(CLEAN)
        assert report.ok
        assert report.warnings == []

    def test_dead_stores_absent(self):
        # Every store in CLEAN is observed by a later load.
        report = lint_assembly(CLEAN)
        assert _passes(report, PASS_DEAD_STORE) == []


class TestSpBalance:
    def test_missing_epilogue_restore(self):
        source = """
        .text
        main:
            lda   sp, -32(sp)
            stq   a0, 0(sp)
            ret
        """
        report = lint_assembly(source)
        errors = _passes(report, PASS_SP, Severity.ERROR)
        assert len(errors) == 1
        assert "unbalanced $sp" in errors[0].message
        assert "-32" in errors[0].message

    def test_early_return_path_skips_epilogue(self):
        source = """
        .text
        main:
            lda   sp, -16(sp)
            beq   a0, main$out
            lda   sp, 16(sp)
        main$out:
            ret
        """
        report = lint_assembly(source)
        errors = _passes(report, PASS_SP, Severity.ERROR)
        assert errors, "paths disagreeing on $sp depth must be flagged"
        assert "disagree" in errors[0].message

    def test_sp_written_by_alu(self):
        source = """
        .text
        main:
            addq  zero, 64, sp
            ret
        """
        report = lint_assembly(source)
        errors = _passes(report, PASS_SP, Severity.ERROR)
        assert any("non-$sp-relative" in e.message for e in errors)

    def test_sp_popped_above_entry(self):
        source = """
        .text
        main:
            lda   sp, 16(sp)
            lda   sp, -16(sp)
            ret
        """
        report = lint_assembly(source)
        errors = _passes(report, PASS_SP, Severity.ERROR)
        assert any("above the function entry" in e.message for e in errors)

    def test_balanced_multiple_returns_ok(self):
        source = """
        .text
        main:
            lda   sp, -16(sp)
            beq   a0, main$alt
            lda   sp, 16(sp)
            ret
        main$alt:
            lda   sp, 16(sp)
            ret
        """
        report = lint_assembly(source)
        assert _passes(report, PASS_SP, Severity.ERROR) == []


class TestFrameBounds:
    def test_overrun_into_caller(self):
        source = """
        .text
        main:
            lda   sp, -16(sp)
            stq   a0, 16(sp)
            lda   sp, 16(sp)
            ret
        """
        report = lint_assembly(source)
        errors = _passes(report, PASS_BOUNDS, Severity.ERROR)
        assert any("caller's frame" in e.message for e in errors)

    def test_partial_overrun_at_frame_edge(self):
        source = """
        .text
        main:
            lda   sp, -16(sp)
            stq   a0, 12(sp)
            lda   sp, 16(sp)
            ret
        """
        report = lint_assembly(source)
        errors = _passes(report, PASS_BOUNDS, Severity.ERROR)
        assert errors, "an 8-byte store 4 bytes from the top must overrun"

    def test_access_below_sp(self):
        source = """
        .text
        main:
            lda   sp, -16(sp)
            stq   a0, -8(sp)
            lda   sp, 16(sp)
            ret
        """
        report = lint_assembly(source)
        errors = _passes(report, PASS_BOUNDS, Severity.ERROR)
        assert any("below $sp" in e.message for e in errors)

    def test_access_with_no_frame(self):
        source = """
        .text
        main:
            stq   a0, 0(sp)
            ret
        """
        report = lint_assembly(source)
        errors = _passes(report, PASS_BOUNDS, Severity.ERROR)
        assert any("no allocated frame" in e.message for e in errors)

    def test_fp_relative_access_checked(self):
        source = """
        .text
        main:
            lda   sp, -32(sp)
            lda   fp, 0(sp)
            stq   a0, 40(fp)
            lda   sp, 32(sp)
            ret
        """
        report = lint_assembly(source)
        errors = _passes(report, PASS_BOUNDS, Severity.ERROR)
        assert errors, "$fp aliases $sp, so 40($fp) overruns the frame"

    def test_word_sized_access_at_edge_ok(self):
        source = """
        .text
        main:
            lda   sp, -16(sp)
            stl   a0, 12(sp)
            ldl   t0, 12(sp)
            print t0
            lda   sp, 16(sp)
            ret
        """
        report = lint_assembly(source)
        assert _passes(report, PASS_BOUNDS, Severity.ERROR) == []


class TestFirstRead:
    def test_read_before_any_write(self):
        source = """
        .text
        main:
            lda   sp, -16(sp)
            ldq   t0, 8(sp)
            print t0
            lda   sp, 16(sp)
            ret
        """
        report = lint_assembly(source)
        warnings = _passes(report, PASS_FIRST_READ, Severity.WARNING)
        assert len(warnings) == 1
        assert "read before any write" in warnings[0].message

    def test_write_on_only_one_path(self):
        source = """
        .text
        main:
            lda   sp, -16(sp)
            beq   a0, main$skip
            stq   a0, 8(sp)
        main$skip:
            ldq   t0, 8(sp)
            print t0
            lda   sp, 16(sp)
            ret
        """
        report = lint_assembly(source)
        assert _passes(report, PASS_FIRST_READ, Severity.WARNING)

    def test_write_on_both_paths_ok(self):
        source = """
        .text
        main:
            lda   sp, -16(sp)
            beq   a0, main$else
            stq   a0, 8(sp)
            br    main$join
        main$else:
            stq   zero, 8(sp)
        main$join:
            ldq   t0, 8(sp)
            print t0
            lda   sp, 16(sp)
            ret
        """
        report = lint_assembly(source)
        assert _passes(report, PASS_FIRST_READ) == []

    def test_partial_word_write_does_not_cover_quad_read(self):
        source = """
        .text
        main:
            lda   sp, -16(sp)
            stl   a0, 8(sp)
            ldq   t0, 8(sp)
            print t0
            lda   sp, 16(sp)
            ret
        """
        report = lint_assembly(source)
        assert _passes(report, PASS_FIRST_READ, Severity.WARNING)


class TestDeadStore:
    def test_store_never_read(self):
        source = """
        .text
        main:
            lda   sp, -16(sp)
            stq   a0, 8(sp)
            lda   sp, 16(sp)
            ret
        """
        report = lint_assembly(source)
        infos = _passes(report, PASS_DEAD_STORE, Severity.INFO)
        assert len(infos) == 1
        assert "never read before frame death" in infos[0].message

    def test_overwritten_store_is_dead(self):
        source = """
        .text
        main:
            lda   sp, -16(sp)
            stq   a0, 8(sp)
            stq   a1, 8(sp)
            ldq   t0, 8(sp)
            print t0
            lda   sp, 16(sp)
            ret
        """
        report = lint_assembly(source)
        infos = _passes(report, PASS_DEAD_STORE, Severity.INFO)
        assert len(infos) == 1
        assert infos[0].index == 1  # the first store, not the second

    def test_read_on_one_path_keeps_store(self):
        source = """
        .text
        main:
            lda   sp, -16(sp)
            stq   a0, 8(sp)
            beq   a0, main$skip
            ldq   t0, 8(sp)
            print t0
        main$skip:
            lda   sp, 16(sp)
            ret
        """
        report = lint_assembly(source)
        assert _passes(report, PASS_DEAD_STORE) == []

    def test_address_taken_suppresses_report(self):
        # Once a slot's address escapes, a computed access could read
        # it, so the pass must stay quiet (conservative).
        source = """
        .text
        main:
            lda   sp, -16(sp)
            lda   t1, 8(sp)
            stq   a0, 8(sp)
            ldq   t2, 0(t1)
            print t2
            lda   sp, 16(sp)
            ret
        """
        report = lint_assembly(source)
        assert _passes(report, PASS_DEAD_STORE) == []


class TestEscape:
    def test_computed_base_access_is_gpr_class(self):
        source = """
        .text
        main:
            lda   sp, -32(sp)
            lda   t0, 8(sp)
            addq  t0, 8, t0
            stq   a0, 0(t0)
            lda   sp, 32(sp)
            ret
        """
        report = lint_assembly(source)
        infos = _passes(report, PASS_ESCAPE, Severity.INFO)
        assert any("$gpr" in d.message for d in infos)

    def test_stack_address_stored_to_global(self):
        source = """
        .data
        cell: .quad 0
        .text
        main:
            lda   sp, -16(sp)
            lda   t0, 8(sp)
            lda   t1, cell
            stq   t0, 0(t1)
            lda   sp, 16(sp)
            ret
        """
        report = lint_assembly(source)
        warnings = _passes(report, PASS_ESCAPE, Severity.WARNING)
        assert any("non-stack memory" in d.message for d in warnings)

    def test_stack_address_passed_to_callee(self):
        source = """
        .text
        main:
            lda   sp, -16(sp)
            stq   ra, 0(sp)
            lda   a0, 8(sp)
            bsr   helper
            ldq   ra, 0(sp)
            lda   sp, 16(sp)
            ret
        helper:
            ldq   v0, 0(a0)
            ret
        """
        report = lint_assembly(source)
        infos = _passes(report, PASS_ESCAPE, Severity.INFO)
        assert any("passed to callee" in d.message for d in infos)

    def test_spilled_address_keeps_taint_through_reload(self):
        source = """
        .text
        main:
            lda   sp, -32(sp)
            lda   t0, 8(sp)
            stq   t0, 16(sp)
            ldq   t1, 16(sp)
            ldq   t2, 0(t1)
            print t2
            lda   sp, 32(sp)
            ret
        """
        report = lint_assembly(source)
        infos = _passes(report, PASS_ESCAPE, Severity.INFO)
        assert any("computed base" in d.message for d in infos), (
            "the reload of a spilled stack address must stay tainted"
        )

    def test_comparison_drops_taint(self):
        source = """
        .text
        main:
            lda   sp, -16(sp)
            lda   t0, 8(sp)
            cmplt t0, 100, t1
            stq   t1, 8(sp)
            ldq   t2, 8(sp)
            print t2
            lda   sp, 16(sp)
            ret
        """
        report = lint_assembly(source)
        assert _passes(report, PASS_ESCAPE, Severity.WARNING) == []

    def test_call_clobbers_temp_taint(self):
        source = """
        .text
        main:
            lda   sp, -16(sp)
            stq   ra, 0(sp)
            lda   t0, 8(sp)
            bsr   helper
            stq   t0, 8(sp)
            ldq   ra, 0(sp)
            lda   sp, 16(sp)
            ret
        helper:
            lda   v0, 1(zero)
            ret
        """
        report = lint_assembly(source)
        # After the call t0 is a clobbered temp: storing it to the
        # frame is not an address spill, so no taint survives into
        # slot 8 and no computed-base/info diagnostics follow.
        infos = _passes(report, PASS_ESCAPE, Severity.INFO)
        assert all("passed to callee" not in d.message for d in infos)

    def test_zero_write_leaves_zero_untainted(self):
        # Writes to $zero are discarded, so $zero never holds a stack
        # address and a base of $zero is not a computed stack base.
        source = """
        .text
        main:
            lda   sp, -16(sp)
            lda   zero, 8(sp)
            ldq   t0, 0(zero)
            print t0
            lda   sp, 16(sp)
            ret
        """
        report = lint_assembly(source)
        assert _passes(report, PASS_ESCAPE) == []

    def test_storing_zero_after_zero_write_is_no_escape(self):
        source = """
        .text
        main:
            lda   sp, -16(sp)
            lda   zero, 8(sp)
            stq   zero, 0(t0)
            lda   sp, 16(sp)
            ret
        """
        report = lint_assembly(source)
        assert _passes(report, PASS_ESCAPE, Severity.WARNING) == []


class TestStructure:
    def test_unreachable_code_reported(self):
        source = """
        .text
        main:
            br    main$done
            addq  zero, 1, t0
        main$done:
            ret
        """
        report = lint_assembly(source)
        infos = _passes(report, PASS_CFG, Severity.INFO)
        assert any("unreachable" in d.message for d in infos)

    def test_uncalled_function_reported(self):
        source = """
        .text
        main:
            ret
        orphan:
            lda   sp, -16(sp)
            lda   sp, 16(sp)
            ret
        """
        report = lint_assembly(source)
        infos = _passes(report, PASS_CFG, Severity.INFO)
        assert any("never called" in d.message for d in infos)

    def test_indirect_call_silences_dead_function_pass(self):
        # An indirect call could reach anything, so no function may be
        # declared dead once the call graph is incomplete.
        source = """
        .text
        main:
            jsr   t0
            ret
        orphan:
            ret
        """
        report = lint_assembly(source)
        infos = _passes(report, PASS_CFG, Severity.INFO)
        assert all("never called" not in d.message for d in infos)

    def test_indirect_jump_warns(self):
        source = """
        .text
        main:
            jmp   t0
        """
        report = lint_assembly(source)
        warnings = _passes(report, PASS_CFG, Severity.WARNING)
        assert any("indirect jump" in d.message for d in warnings)


# ---------------------------------------------------------------------------
# first-read / dead-store against a frozenset reference lattice
# ---------------------------------------------------------------------------


def _reference_written(context, index, value):
    instruction = context.cfg.instruction(index)
    slot = context.slot(index)
    if instruction.is_store and slot is not None:
        value.update(range(slot[0], slot[0] + slot[1]))
    elif instruction.is_store or instruction.is_call:
        if context.aliased_floor < 0:
            value.update(range(context.aliased_floor, 0))


def _reference_live(context, index, value):
    slot = context.slot(index)
    if slot is None or not context.is_private(*slot):
        return
    span = range(slot[0], slot[0] + slot[1])
    if context.cfg.instruction(index).is_load:
        value.update(span)
    else:
        value.difference_update(span)


class _ReferenceBytes(SetProblem):
    """Frame-byte facts as frozensets of entry-relative offsets."""

    def __init__(self, context, step, may, direction):
        self.context, self._step = context, step
        self.may, self.direction = may, direction

    def step(self, cfg, index, value):
        self._step(self.context, index, value)


def _reference_sites(context, step, may, direction, flagged):
    """Indices the lint walk would flag, over the reference facts."""
    cfg = context.cfg
    result = solve(cfg, _ReferenceBytes(context, step, may, direction))
    sites = []
    for block in cfg.blocks:
        if block.id not in context.reachable:
            continue
        fact = set(result.inputs[block.id] or ())
        indices = block.indices()
        if direction == BACKWARD:
            indices = reversed(indices)
        for index in indices:
            slot = context.slot(index)
            if slot is not None and flagged(
                context, cfg.instruction(index), slot, fact
            ):
                sites.append(index)
            step(context, index, fact)
    return sites


def _read_unwritten(context, instruction, slot, written):
    return instruction.is_load and not written.issuperset(
        range(slot[0], slot[0] + slot[1])
    )


def _store_dead(context, instruction, slot, live):
    return (
        instruction.is_store
        and context.is_private(*slot)
        and not live.intersection(range(slot[0], slot[0] + slot[1]))
    )


@st.composite
def _frame_function(draw, name, callee):
    """A function with a drawn frame: $sp/$fp accesses in and out of
    the frame, taken addresses, computed stores, calls and branches
    (forward, backward, and into loops)."""
    frame = draw(st.sampled_from((8, 16, 32, 48)))
    labels = [f"{name}$l{i}" for i in range(draw(st.integers(0, 3)))]
    # Offsets below $sp (negative) and above the entry level (>= frame).
    offsets = st.integers(-4, frame // 4 + 3).map(lambda q: 4 * q)
    base = st.sampled_from(("sp", "sp", "fp"))
    body = []
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from((
            "store", "store", "load", "load", "take", "computed-store",
            "call", "set-fp", "lose-fp", "branch",
        )))
        if kind in ("store", "load"):
            op = draw(st.sampled_from(("q", "l")))
            prefix = "st" if kind == "store" else "ld"
            body.append(
                f"{prefix}{op} t0, {draw(offsets)}({draw(base)})"
            )
        elif kind == "take":
            body.append(f"lda t1, {draw(offsets)}({draw(base)})")
        elif kind == "computed-store":
            body.append("stq t0, 0(t1)")
        elif kind == "call":
            body.append(f"bsr {callee}")
        elif kind == "set-fp":
            level = draw(st.sampled_from((0, 8, frame)))
            body.append(f"lda fp, {level}(sp)")
        elif kind == "lose-fp":
            body.append("ldq fp, 0(t1)")
        elif labels:
            op = draw(st.sampled_from(("beq t0,", "bne t2,", "br")))
            body.append(f"{op} {draw(st.sampled_from(labels))}")
    for label in labels:
        body.insert(draw(st.integers(0, len(body))), f"{label}:")
    lines = [f"{name}:", f"lda sp, -{frame}(sp)", *body,
             f"lda sp, {frame}(sp)", "ret"]
    return "\n".join(lines)


@st.composite
def _frame_program(draw):
    return "\n".join([
        ".text",
        draw(_frame_function("main", "helper")),
        draw(_frame_function("helper", "main")),
    ])


class TestByteMaskFacts:
    @given(_frame_program())
    @settings(max_examples=300, deadline=None)
    def test_passes_match_frozenset_reference(self, source):
        for function in build_cfg(assemble(source)).functions.values():
            context, _diagnostics = analyze_frames(function)
            assert [d.index for d in first_read_pass(context)] == (
                _reference_sites(context, _reference_written, False,
                                 FORWARD, _read_unwritten)
            )
            assert [d.index for d in dead_store_pass(context)] == (
                _reference_sites(context, _reference_live, True,
                                 BACKWARD, _store_dead)
            )


# ---------------------------------------------------------------------------
# escape: the token dataflow against a boolean taint reference
# ---------------------------------------------------------------------------


def _reference_taint_step(context, index, fact):
    """One instruction over ``(tainted registers, tainted slots)``."""
    regs, slots = fact
    instruction = context.cfg.instruction(index)

    def retaint(register, tainted):
        nonlocal regs
        if register is None or register in (SP, FP):
            return
        regs = regs | {register} if tainted else regs - {register}

    if instruction.op == "lda":
        retaint(instruction.rd, instruction.rb in regs
                or instruction.rb in (SP, FP))
    elif instruction.is_load:
        slot = context.slot(index)
        retaint(instruction.rd, slot is not None and slot[0] in slots)
    elif instruction.is_store:
        slot = context.slot(index)
        tainted = instruction.rd in regs or instruction.rd in (SP, FP)
        if slot is not None:
            slots = slots | {slot[0]} if tainted else slots - {slot[0]}
    elif instruction.op in _ADDRESS_PRESERVING_ALU:
        retaint(instruction.rd, bool(
            set(instruction.source_registers()) & (regs | {SP, FP})
        ))
    elif instruction.op_class.name in ("IALU", "IMULT"):
        retaint(instruction.destination_register(), False)
    elif instruction.is_call:
        regs = regs - _CALLER_SAVED
    return (regs, slots)


class _ReferenceTaint(DataflowProblem):
    direction = FORWARD

    def __init__(self, context):
        self.context = context

    def boundary(self, cfg):
        return (frozenset(), frozenset())

    def top(self, cfg):
        return (frozenset(), frozenset())

    def meet(self, left, right):
        return (left[0] | right[0], left[1] | right[1])

    def transfer(self, cfg, block, fact):
        for index in block.indices():
            fact = _reference_taint_step(self.context, index, fact)
        return fact


def _reference_escapes(context):
    """``(severity, index, message)`` of each escape the boolean taint
    reference flags, in lint's emission order."""
    cfg = context.cfg
    result = solve(cfg, _ReferenceTaint(context))
    found = []
    for block in cfg.blocks:
        if block.id not in context.reachable:
            continue
        fact = result.inputs[block.id]
        for index in block.indices():
            instruction = cfg.instruction(index)
            regs = fact[0]
            if instruction.is_mem and instruction.rb in regs:
                found.append((
                    Severity.INFO, index,
                    f"stack access through computed base "
                    f"${register_name(instruction.rb)}: the paper's $gpr "
                    f"class; the SVF must re-route it after address "
                    f"calculation",
                ))
            if (
                instruction.is_store
                and (instruction.rd in regs or instruction.rd in (SP, FP))
                and context.slot(index) is None
            ):
                found.append((
                    Severity.WARNING, index,
                    "stack address stored to non-stack memory; aliases "
                    "through it are invisible to static morphing and "
                    "must hit the SVF's re-route path",
                ))
            if instruction.is_call:
                for register in sorted(regs & set(ARG_REGISTERS)):
                    found.append((
                        Severity.INFO, index,
                        f"stack address passed to callee in "
                        f"${register_name(register)}; the callee's "
                        f"accesses to it are $gpr-class",
                    ))
            fact = _reference_taint_step(context, index, fact)
    return found


#: Registers the drawn code reads and writes; never $zero, whose
#: writes the token dataflow discards and the reference would taint.
_ESCAPE_REGISTERS = ("t0", "t1", "t2", "a0", "a1", "a2", "v0", "s0")


@st.composite
def _escape_function(draw, name, callee):
    """A function that takes frame addresses, does pointer arithmetic,
    spills and reloads them, stores and loads through computed bases
    and a global, passes them in argument registers, and branches."""
    frame = draw(st.sampled_from((16, 32, 48)))
    labels = [f"{name}$l{i}" for i in range(draw(st.integers(0, 3)))]
    slot = st.sampled_from(range(8, frame, 8))
    register = st.sampled_from(_ESCAPE_REGISTERS)
    source = st.sampled_from(_ESCAPE_REGISTERS + ("sp",))
    body = []
    for _ in range(draw(st.integers(1, 16))):
        kind = draw(st.sampled_from((
            "take", "take", "arith", "compare", "spill", "reload",
            "computed-store", "computed-load", "global-store", "call",
            "branch", "set-fp",
        )))
        if kind == "take":
            base = draw(st.sampled_from(("sp", "fp")))
            body.append(f"lda {draw(register)}, {draw(slot)}({base})")
        elif kind == "arith":
            op = draw(st.sampled_from(("addq", "subq", "sll", "and")))
            second = draw(st.one_of(register, st.sampled_from(("8", "1"))))
            body.append(f"{op} {draw(source)}, {second}, {draw(register)}")
        elif kind == "compare":
            body.append(f"cmplt {draw(register)}, 100, {draw(register)}")
        elif kind == "spill":
            body.append(f"stq {draw(register)}, {draw(slot)}(sp)")
        elif kind == "reload":
            body.append(f"ldq {draw(register)}, {draw(slot)}(sp)")
        elif kind == "computed-store":
            body.append(f"stq {draw(source)}, 0({draw(register)})")
        elif kind == "computed-load":
            body.append(f"ldq {draw(register)}, 8({draw(register)})")
        elif kind == "global-store":
            body.append("lda t3, cell")
            body.append(f"stq {draw(register)}, 0(t3)")
        elif kind == "call":
            for arg in draw(st.lists(
                st.sampled_from(("a0", "a1", "a2")), max_size=2, unique=True
            )):
                body.append(f"lda {arg}, {draw(slot)}(sp)")
            body.append(f"bsr {callee}")
        elif kind == "set-fp":
            body.append(f"lda fp, {frame}(sp)")
        elif labels:
            op = draw(st.sampled_from(("beq t0,", "bne a0,", "br")))
            body.append(f"{op} {draw(st.sampled_from(labels))}")
    for label in labels:
        body.insert(draw(st.integers(0, len(body))), f"{label}:")
    return "\n".join([
        f"{name}:", f"lda sp, -{frame}(sp)", "stq ra, 0(sp)", *body,
        "ldq ra, 0(sp)", f"lda sp, {frame}(sp)", "ret",
    ])


@st.composite
def _escape_program(draw):
    return "\n".join([
        ".data", "cell: .quad 0", ".text",
        draw(_escape_function("main", "helper")),
        draw(_escape_function("helper", "main")),
    ])


class TestEscapeTokens:
    @given(_escape_program())
    @settings(max_examples=300, deadline=None)
    def test_lint_matches_boolean_reference(self, source):
        expected = []
        for function in build_cfg(assemble(source)).functions.values():
            context, _diagnostics = analyze_frames(function)
            if context.sp_tracked:
                expected += [
                    (function.name, *escape)
                    for escape in _reference_escapes(context)
                ]
        report = lint_assembly(source)
        assert [
            (d.function, d.severity, d.index, d.message)
            for d in report.diagnostics if d.pass_name == PASS_ESCAPE
        ] == expected
