"""MiniC code generator targeting the Alpha-like ISA.

The generated code follows the Compaq Alpha calling convention the
paper assumes (Section 2):

* the stack grows down; each function's prologue is a single
  ``lda $sp, -FRAME($sp)`` adjustment and its epilogue the matching
  positive adjustment — exactly the ``$sp`` updates the SVF tracks;
* incoming arguments arrive in ``a0..a5`` and are *spilled to frame
  slots* at entry; scalar locals also live in frame slots.  All those
  slots are addressed ``±IMM($sp)`` — the access method that dominates
  Figure 1 and that the SVF morphs into register moves;
* local arrays live in the frame and are addressed through computed
  temporaries — the ``$gpr`` stack accesses that must be re-routed
  into the SVF (Section 3.2);
* in functions that contain arrays the spilled parameters are
  addressed through ``$fp`` (frame base), reproducing the smaller
  ``$fp`` slice of Figure 1.

Expression evaluation is stack-machine style over a pool of caller-
saved temporaries, spilling to frame slots across calls — the memory
traffic profile of unoptimized compiled code, which is what gives the
stack its outsized share of references.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.emulator.memory import DATA_BASE, HEAP_BASE, STACK_BASE
from repro.lang import ast_nodes as ast
from repro.lang.parser import parse
from repro.lang.semantics import Symbol, analyze
from repro.trace.regions import STACK_REGION_FLOOR

_TEMP_POOL = ["t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9",
              "t10", "t11", "t12", "t13"]
_ARG_REGS = ["a0", "a1", "a2", "a3", "a4", "a5"]
_SAVED_REGS = ["s0", "s1", "s2", "s3", "s4", "s5"]

_HEAP_PTR_SYMBOL = "__heap_ptr"

#: Bytes one frame may span (the whole stack region) and bytes all
#: globals may span (the data region, heap pointer included).
_STACK_REGION_BYTES = STACK_BASE - STACK_REGION_FLOOR
_DATA_REGION_BYTES = HEAP_BASE - DATA_BASE

#: comparison operators mapped to (opcode, swap_operands, negate_result)
_COMPARISONS = {
    "<": ("cmplt", False, False),
    "<=": ("cmple", False, False),
    ">": ("cmplt", True, False),
    ">=": ("cmple", True, False),
    "==": ("cmpeq", False, False),
    "!=": ("cmpeq", False, True),
}

_ARITHMETIC = {
    "+": "addq",
    "-": "subq",
    "*": "mulq",
    "/": "divq",
    "%": "remq",
    "&": "and",
    "|": "or",
    "^": "xor",
    "<<": "sll",
    ">>": "sra",
}


class CodegenError(ValueError):
    """Raised on conditions the code generator cannot handle."""


@dataclass
class CodegenOptions:
    """Knobs that shape the generated stack-reference mix.

    ``fp_frames`` — when True, functions whose frames contain arrays
    address their spilled parameters through ``$fp`` instead of
    ``$sp``, producing the paper's ``$fp`` access-method slice.

    ``promoted_locals`` — number of hot scalar locals per function kept
    in callee-saved registers instead of frame slots (a lightweight
    register allocator).  The Compaq compiler the paper used promotes
    hot scalars the same way; without promotion the stack share of
    memory references is unrealistically high.  Set to 0 for the
    -O0-style ablation.

    ``opt_level`` — 0 emits the naive stack-machine code unchanged (the
    default; all goldens pin this level); 1 additionally runs the
    dataflow optimizer pipeline of :mod:`repro.lang.opt` (redundant
    $sp-relative load forwarding, frame dead-store elimination,
    register DCE, frame-slot coalescing) over the assembled program.
    """

    fp_frames: bool = True
    promoted_locals: int = 4
    opt_level: int = 0


def _count_uses(body, depth: int = 0, weights=None):
    """Weighted static use counts per symbol uid (loops weigh 8x/level)."""
    if weights is None:
        weights = {}
    factor = 8 ** min(depth, 4)

    def visit_expr(expr):
        if expr is None:
            return
        if isinstance(expr, ast.VarRef):
            symbol = getattr(expr, "symbol", None)
            if symbol is not None and symbol.kind != "global":
                weights[symbol.uid] = weights.get(symbol.uid, 0) + factor
            return
        if isinstance(expr, ast.Unary):
            visit_expr(expr.operand)
        elif isinstance(expr, ast.Binary):
            visit_expr(expr.left)
            visit_expr(expr.right)
        elif isinstance(expr, ast.Index):
            visit_expr(expr.base)
            visit_expr(expr.index)
        elif isinstance(expr, ast.Call):
            for argument in expr.args:
                visit_expr(argument)

    for statement in body:
        if isinstance(statement, ast.Declaration):
            symbol = getattr(statement, "symbol", None)
            if symbol is not None:
                weights[symbol.uid] = weights.get(symbol.uid, 0) + factor
            visit_expr(statement.initializer)
        elif isinstance(statement, ast.Assign):
            visit_expr(statement.target)
            visit_expr(statement.value)
        elif isinstance(statement, ast.ExprStmt):
            visit_expr(statement.expr)
        elif isinstance(statement, ast.If):
            visit_expr(statement.condition)
            _count_uses(statement.then_body, depth, weights)
            _count_uses(statement.else_body, depth, weights)
        elif isinstance(statement, ast.While):
            visit_expr(statement.condition)
            _count_uses(statement.body, depth + 1, weights)
        elif isinstance(statement, ast.For):
            if statement.init is not None:
                _count_uses([statement.init], depth, weights)
            visit_expr(statement.condition)
            if statement.step is not None:
                _count_uses([statement.step], depth + 1, weights)
            _count_uses(statement.body, depth + 1, weights)
        elif isinstance(statement, ast.Return):
            visit_expr(statement.value)
    return weights


class _TempEntry:
    __slots__ = ("reg", "slot", "pinned", "alias")

    def __init__(self, reg: Optional[str], alias: bool = False):
        self.reg = reg
        self.slot: Optional[int] = None
        self.pinned = False
        #: alias entries reference a callee-saved register directly (a
        #: promoted local read); they are never spilled or freed.
        self.alias = alias


class _FunctionEmitter:
    """Emits one function; owns labels, temps, spill slots and the frame."""

    def __init__(self, generator: "CodeGenerator", function: ast.Function):
        self.generator = generator
        self.function = function
        self.info = function.info  # type: ignore[attr-defined]
        self.options = generator.options
        self.lines: List[str] = []
        self.label_counter = 0
        self.loop_stack: List[Dict[str, str]] = []
        # Temp-register stack machine state.
        self.free_regs = list(_TEMP_POOL)
        self.stack: List[_TempEntry] = []
        self.spill_slots_used = 0
        self.free_spill_slots: List[int] = []
        # Frame layout (scalar slots assigned up front; spills patched later).
        self.fp_framed = bool(self.options.fp_frames and self.info.has_arrays)
        self.promoted: Dict[int, str] = {}
        self._promote_locals()
        self.offsets: Dict[int, int] = {}
        self._assign_slots()

    # -- frame layout -------------------------------------------------------

    def _promote_locals(self) -> None:
        """Keep the hottest scalar locals in callee-saved registers.

        Eligible symbols are non-array, non-address-taken scalars.
        Uses are weighted by loop-nesting depth so induction variables
        win, mirroring what a real allocator does.
        """
        budget = min(self.options.promoted_locals, len(_SAVED_REGS))
        if budget <= 0:
            return
        weights = _count_uses(self.function.body)
        candidates = [
            symbol
            for symbol in self.info.params + self.info.locals
            if not symbol.is_array
            and not symbol.address_taken
            and weights.get(symbol.uid, 0) > 0
        ]
        candidates.sort(key=lambda s: weights[s.uid], reverse=True)
        for index, symbol in enumerate(candidates[:budget]):
            self.promoted[symbol.uid] = _SAVED_REGS[index]

    def _assign_slots(self) -> None:
        """Assign frame offsets.

        Scalars (and spill slots, patched in later) sit nearest ``$sp``
        — they are the hot slots and must stay close to the TOS.
        Arrays stack above them; their final offsets depend on the
        spill count, so array references are emitted with ``@A...@``
        placeholder displacements and resolved in :meth:`_patch_frame`.
        """
        cursor = 0
        for symbol in self.info.params:
            if symbol.uid in self.promoted:
                continue
            self.offsets[symbol.uid] = cursor
            symbol.frame_offset = cursor
            cursor += 8
        for symbol in self.info.locals:
            if symbol.is_array or symbol.uid in self.promoted:
                continue
            self.offsets[symbol.uid] = cursor
            symbol.frame_offset = cursor
            cursor += 8
        self.scalar_end = cursor
        # Arrays: relative offsets within the array area.
        self.array_rel: Dict[int, int] = {}
        array_cursor = 0
        for symbol in self.info.locals:
            if symbol.is_array:
                self.array_rel[symbol.uid] = array_cursor
                array_cursor += 8 * symbol.array_size
        self.array_total = array_cursor

    def slot_ref(self, symbol: Symbol, delta: int = 0) -> str:
        """Displacement text for one frame slot (may be a placeholder)."""
        if symbol.is_array:
            return f"@A{symbol.uid}_{delta}@"
        return str(self.offsets[symbol.uid] + delta)

    def frame_base_reg(self, symbol: Symbol) -> str:
        """Register used to address one frame slot directly."""
        if self.fp_framed and symbol.kind == "param":
            return "fp"
        return "sp"

    # -- low-level emission ---------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append("    " + line)

    def emit_label(self, label: str) -> None:
        self.lines.append(f"{label}:")

    def new_label(self, hint: str) -> str:
        self.label_counter += 1
        return f"{self.function.name}${hint}{self.label_counter}"

    # -- temp stack -------------------------------------------------------------

    def _alloc_reg(self, avoid=()) -> str:
        for position in range(len(self.free_regs) - 1, -1, -1):
            if self.free_regs[position] not in avoid:
                return self.free_regs.pop(position)
        # Spill the oldest unpinned in-register entry.
        for entry in self.stack:
            if entry.reg is not None and not entry.pinned and not entry.alias:
                slot = self._alloc_spill_slot()
                self.emit(f"stq {entry.reg}, @S{slot}@(sp)")
                reg = entry.reg
                entry.reg = None
                entry.slot = slot
                return reg
        raise CodegenError("temporary registers exhausted")

    def _alloc_spill_slot(self) -> int:
        if self.free_spill_slots:
            return self.free_spill_slots.pop()
        slot = self.spill_slots_used
        self.spill_slots_used += 1
        return slot

    def push(self, avoid=()) -> str:
        """Allocate a register for a new value on the temp stack.

        ``avoid`` lists registers that must stay readable until the
        multi-instruction sequence consuming them has been emitted.
        """
        reg = self._alloc_reg(avoid)
        self.stack.append(_TempEntry(reg))
        return reg

    def push_alias(self, reg: str) -> None:
        """Push a read-only alias of a callee-saved register.

        Alias entries cost no move instruction and are never spilled:
        the aliased register is only written at statement level, and
        expression evaluation completes within a statement.
        """
        self.stack.append(_TempEntry(reg, alias=True))

    def pop(self) -> str:
        """Pop the top value; returns the register holding it.

        The register is returned to the free pool immediately, so the
        value must be consumed by the very next emitted instruction.
        """
        entry = self.stack.pop()
        if entry.alias:
            return entry.reg
        if entry.reg is None:
            reg = self._alloc_reg()
            self.emit(f"ldq {reg}, @S{entry.slot}@(sp)")
            self.free_spill_slots.append(entry.slot)
            entry.reg = reg
        self.free_regs.append(entry.reg)
        return entry.reg

    def pop_many(self, count: int) -> List[str]:
        """Pop ``count`` values at once, returning registers top-first.

        Unlike repeated :meth:`pop` calls, all values are materialized
        into registers *before* any register is freed, so reloads of
        spilled entries can never clobber one another.  The registers
        must all be consumed by the immediately following emitted
        instruction(s), before any further push.
        """
        group = self.stack[-count:]
        for entry in group:
            entry.pinned = True
        for entry in group:
            if entry.reg is None and not entry.alias:
                reg = self._alloc_reg()
                self.emit(f"ldq {reg}, @S{entry.slot}@(sp)")
                self.free_spill_slots.append(entry.slot)
                entry.reg = reg
        registers = []
        freeable = []
        for _ in range(count):
            entry = self.stack.pop()
            entry.pinned = False
            registers.append(entry.reg)
            if not entry.alias:
                freeable.append(entry.reg)
        # Free bottom-up so a subsequent push() reuses the *top* value's
        # register first — writing the result over the top operand is
        # always safe for "op left, right, result" sequences.
        self.free_regs.extend(reversed(freeable))
        return registers

    def spill_all(self) -> None:
        """Spill every live temp to the frame (before a call).

        Alias entries stay put: they reference callee-saved registers,
        which survive the call by convention.
        """
        for entry in self.stack:
            if entry.reg is not None and not entry.alias:
                slot = self._alloc_spill_slot()
                self.emit(f"stq {entry.reg}, @S{slot}@(sp)")
                self.free_regs.append(entry.reg)
                entry.reg = None
                entry.slot = slot

    # -- function ---------------------------------------------------------------

    def generate(self) -> List[str]:
        info = self.info
        self.emit_label(self.function.name)
        self.epilogue_label = self.new_label("epilogue")
        self.used_sregs = sorted(
            set(self.promoted.values()), key=_SAVED_REGS.index
        )
        self.emit("lda sp, -@FRAME@(sp)")
        if info.makes_calls:
            self.emit("stq ra, @RA@(sp)")
        if self.fp_framed:
            self.emit("stq fp, @FP@(sp)")
            self.emit("lda fp, 0(sp)")
        for index, sreg in enumerate(self.used_sregs):
            self.emit(f"stq {sreg}, @SV{index}@(sp)")
        for index, symbol in enumerate(info.params):
            if symbol.uid in self.promoted:
                self.emit(f"addq {_ARG_REGS[index]}, 0, {self.promoted[symbol.uid]}")
            else:
                base = self.frame_base_reg(symbol)
                self.emit(
                    f"stq {_ARG_REGS[index]}, {self.offsets[symbol.uid]}({base})"
                )
        for statement in self.function.body:
            self.gen_statement(statement)
        self.emit_label(self.epilogue_label)
        for index, sreg in enumerate(self.used_sregs):
            self.emit(f"ldq {sreg}, @SV{index}@(sp)")
        if self.fp_framed:
            self.emit("ldq fp, @FP@(sp)")
        if info.makes_calls:
            self.emit("ldq ra, @RA@(sp)")
        self.emit("lda sp, @FRAME@(sp)")
        self.emit("ret")
        return self._patch_frame()

    _ARRAY_TOKEN = re.compile(r"@A(\d+)_(-?\d+)@")

    def _patch_frame(self) -> List[str]:
        spill_base = self.scalar_end
        array_base = spill_base + 8 * self.spill_slots_used
        sreg_base = array_base + self.array_total
        saved_base = sreg_base + 8 * len(self.used_sregs)
        fp_offset = saved_base
        ra_offset = saved_base + (8 if self.fp_framed else 0)
        frame = ra_offset + (8 if self.info.makes_calls else 0)
        frame = max(16, (frame + 15) & ~15)
        if frame > _STACK_REGION_BYTES:
            raise CodegenError(
                f"function {self.function.name!r} needs a {frame:,}-byte "
                f"frame; the stack region holds {_STACK_REGION_BYTES:,} bytes"
            )
        array_rel = self.array_rel

        def resolve_array(match: "re.Match") -> str:
            uid = int(match.group(1))
            delta = int(match.group(2))
            return str(array_base + array_rel[uid] + delta)

        patched = []
        for line in self.lines:
            if "@" in line:
                line = line.replace("@FRAME@", str(frame))
                line = line.replace("@RA@", str(ra_offset))
                line = line.replace("@FP@", str(fp_offset))
                line = self._ARRAY_TOKEN.sub(resolve_array, line)
                for index in range(len(self.used_sregs)):
                    token = f"@SV{index}@"
                    if token in line:
                        line = line.replace(token, str(sreg_base + 8 * index))
                for slot in range(self.spill_slots_used):
                    token = f"@S{slot}@"
                    if token in line:
                        line = line.replace(token, str(spill_base + 8 * slot))
            patched.append(line)
        return patched

    # -- statements ----------------------------------------------------------------

    def gen_statement(self, statement: ast.Stmt) -> None:
        if isinstance(statement, ast.Declaration):
            self.gen_declaration(statement)
        elif isinstance(statement, ast.Assign):
            self.gen_assign(statement)
        elif isinstance(statement, ast.ExprStmt):
            if statement.expr is not None:
                self.gen_expression(statement.expr)
                self.pop()
        elif isinstance(statement, ast.If):
            self.gen_if(statement)
        elif isinstance(statement, ast.While):
            self.gen_while(statement)
        elif isinstance(statement, ast.For):
            self.gen_for(statement)
        elif isinstance(statement, ast.Return):
            if statement.value is not None:
                self.gen_expression(statement.value)
                reg = self.pop()
                self.emit(f"addq {reg}, 0, v0")
            else:
                self.emit("lda v0, 0(zero)")
            self.emit(f"br {self.epilogue_label}")
        elif isinstance(statement, ast.Break):
            self.emit(f"br {self.loop_stack[-1]['break']}")
        elif isinstance(statement, ast.Continue):
            self.emit(f"br {self.loop_stack[-1]['continue']}")
        else:  # pragma: no cover - statement set is closed
            raise CodegenError(f"unknown statement {type(statement).__name__}")

    def gen_declaration(self, declaration: ast.Declaration) -> None:
        symbol = declaration.symbol  # type: ignore[attr-defined]
        if declaration.initializer is not None:
            self.gen_expression(declaration.initializer)
            reg = self.pop()
            if symbol.uid in self.promoted:
                self.emit(f"addq {reg}, 0, {self.promoted[symbol.uid]}")
            else:
                base = self.frame_base_reg(symbol)
                self.emit(f"stq {reg}, {self.offsets[symbol.uid]}({base})")

    def gen_assign(self, assign: ast.Assign) -> None:
        target = assign.target
        if isinstance(target, ast.VarRef):
            symbol = target.symbol  # type: ignore[attr-defined]
            if symbol.kind == "global":
                address = self.push()
                self.emit(f"lda {address}, {symbol.name}")
                self.gen_expression(assign.value)
                value = self.pop()
                address = self.pop()
                self.emit(f"stq {value}, 0({address})")
            elif symbol.uid in self.promoted:
                self.gen_expression(assign.value)
                value = self.pop()
                self.emit(f"addq {value}, 0, {self.promoted[symbol.uid]}")
            else:
                self.gen_expression(assign.value)
                value = self.pop()
                base = self.frame_base_reg(symbol)
                self.emit(f"stq {value}, {self.offsets[symbol.uid]}({base})")
            return
        if isinstance(target, ast.Index):
            slot = self.constant_slot(target)
            if slot is not None:
                base, offset = slot
                self.gen_expression(assign.value)
                value = self.pop()
                self.emit(f"stq {value}, {offset}({base})")
                return
            self.gen_address_of_index(target)
            self.gen_expression(assign.value)
            value, address = self.pop_many(2)
            self.emit(f"stq {value}, 0({address})")
            return
        if isinstance(target, ast.Unary) and target.op == "*":
            self.gen_expression(target.operand)
            self.gen_expression(assign.value)
            value, address = self.pop_many(2)
            self.emit(f"stq {value}, 0({address})")
            return
        raise CodegenError("invalid assignment target")  # pragma: no cover

    def gen_if(self, statement: ast.If) -> None:
        else_label = self.new_label("else")
        end_label = self.new_label("endif")
        self.gen_expression(statement.condition)
        reg = self.pop()
        self.emit(f"beq {reg}, {else_label}")
        for inner in statement.then_body:
            self.gen_statement(inner)
        if statement.else_body:
            self.emit(f"br {end_label}")
            self.emit_label(else_label)
            for inner in statement.else_body:
                self.gen_statement(inner)
            self.emit_label(end_label)
        else:
            self.emit_label(else_label)

    def gen_while(self, statement: ast.While) -> None:
        head = self.new_label("while")
        end = self.new_label("endwhile")
        self.loop_stack.append({"break": end, "continue": head})
        self.emit_label(head)
        self.gen_expression(statement.condition)
        reg = self.pop()
        self.emit(f"beq {reg}, {end}")
        for inner in statement.body:
            self.gen_statement(inner)
        self.emit(f"br {head}")
        self.emit_label(end)
        self.loop_stack.pop()

    def gen_for(self, statement: ast.For) -> None:
        head = self.new_label("for")
        step_label = self.new_label("forstep")
        end = self.new_label("endfor")
        if statement.init is not None:
            self.gen_statement(statement.init)
        self.loop_stack.append({"break": end, "continue": step_label})
        self.emit_label(head)
        if statement.condition is not None:
            self.gen_expression(statement.condition)
            reg = self.pop()
            self.emit(f"beq {reg}, {end}")
        for inner in statement.body:
            self.gen_statement(inner)
        self.emit_label(step_label)
        if statement.step is not None:
            self.gen_statement(statement.step)
        self.emit(f"br {head}")
        self.emit_label(end)
        self.loop_stack.pop()

    # -- expressions ------------------------------------------------------------------

    def gen_expression(self, expr: ast.Expr) -> None:
        """Evaluate ``expr``, leaving its value on the temp stack."""
        if isinstance(expr, ast.IntLiteral):
            reg = self.push()
            self.emit(f"lda {reg}, {expr.value}(zero)")
            return
        if isinstance(expr, ast.VarRef):
            self.gen_varref(expr)
            return
        if isinstance(expr, ast.Unary):
            self.gen_unary(expr)
            return
        if isinstance(expr, ast.Binary):
            self.gen_binary(expr)
            return
        if isinstance(expr, ast.Index):
            slot = self.constant_slot(expr)
            if slot is not None:
                base, offset = slot
                reg = self.push()
                self.emit(f"ldq {reg}, {offset}({base})")
                return
            self.gen_address_of_index(expr)
            address = self.pop()
            reg = self.push()
            self.emit(f"ldq {reg}, 0({address})")
            return
        if isinstance(expr, ast.Call):
            self.gen_call(expr)
            return
        raise CodegenError(  # pragma: no cover - expression set is closed
            f"unknown expression {type(expr).__name__}"
        )

    def gen_varref(self, expr: ast.VarRef) -> None:
        symbol = expr.symbol  # type: ignore[attr-defined]
        if symbol.kind != "global" and symbol.uid in self.promoted:
            self.push_alias(self.promoted[symbol.uid])
            return
        reg = self.push()
        if symbol.kind == "global":
            if symbol.is_array:
                self.emit(f"lda {reg}, {symbol.name}")
            else:
                self.emit(f"lda {reg}, {symbol.name}")
                self.emit(f"ldq {reg}, 0({reg})")
            return
        base = self.frame_base_reg(symbol)
        if symbol.is_array:
            self.emit(f"lda {reg}, {self.slot_ref(symbol)}({base})")
        else:
            self.emit(f"ldq {reg}, {self.slot_ref(symbol)}({base})")

    def gen_unary(self, expr: ast.Unary) -> None:
        if expr.op == "&":
            target = expr.operand
            if isinstance(target, ast.VarRef):
                symbol = target.symbol  # type: ignore[attr-defined]
                reg = self.push()
                if symbol.kind == "global":
                    self.emit(f"lda {reg}, {symbol.name}")
                else:
                    base = self.frame_base_reg(symbol)
                    self.emit(f"lda {reg}, {self.slot_ref(symbol)}({base})")
                return
            if isinstance(target, ast.Index):
                self.gen_address_of_index(target)
                return
            raise CodegenError("'&' needs a variable or element")
        if expr.op == "*":
            self.gen_expression(expr.operand)
            address = self.pop()
            reg = self.push()
            self.emit(f"ldq {reg}, 0({address})")
            return
        self.gen_expression(expr.operand)
        operand = self.pop()
        reg = self.push()
        if expr.op == "-":
            self.emit(f"subq zero, {operand}, {reg}")
        elif expr.op == "!":
            self.emit(f"cmpeq {operand}, 0, {reg}")
        elif expr.op == "~":
            self.emit(f"xor {operand}, -1, {reg}")
        else:  # pragma: no cover - operator set is closed
            raise CodegenError(f"unknown unary operator {expr.op!r}")

    def gen_binary(self, expr: ast.Binary) -> None:
        if expr.op in ("&&", "||"):
            self.gen_logical(expr)
            return
        self.gen_expression(expr.left)
        self.gen_expression(expr.right)
        right, left = self.pop_many(2)
        reg = self.push()
        if expr.op in _ARITHMETIC:
            self.emit(f"{_ARITHMETIC[expr.op]} {left}, {right}, {reg}")
            return
        if expr.op in _COMPARISONS:
            opcode, swap, negate = _COMPARISONS[expr.op]
            first, second = (right, left) if swap else (left, right)
            self.emit(f"{opcode} {first}, {second}, {reg}")
            if negate:
                self.emit(f"cmpeq {reg}, 0, {reg}")
            return
        raise CodegenError(  # pragma: no cover - operator set is closed
            f"unknown binary operator {expr.op!r}"
        )

    def gen_logical(self, expr: ast.Binary) -> None:
        """Short-circuit &&/|| with a frame-slot join (memory result)."""
        slot = self._alloc_spill_slot()
        end = self.new_label("logic")
        self.gen_expression(expr.left)
        left = self.pop()
        normalized = self.push()
        self.emit(f"cmpeq {left}, 0, {normalized}")
        self.emit(f"cmpeq {normalized}, 0, {normalized}")
        self.emit(f"stq {normalized}, @S{slot}@(sp)")
        branch = "beq" if expr.op == "&&" else "bne"
        self.emit(f"{branch} {normalized}, {end}")
        self.pop()
        self.gen_expression(expr.right)
        right = self.pop()
        renormalized = self.push()
        self.emit(f"cmpeq {right}, 0, {renormalized}")
        self.emit(f"cmpeq {renormalized}, 0, {renormalized}")
        self.emit(f"stq {renormalized}, @S{slot}@(sp)")
        self.pop()
        self.emit_label(end)
        result = self.push()
        self.emit(f"ldq {result}, @S{slot}@(sp)")
        self.free_spill_slots.append(slot)

    def constant_slot(self, expr: ast.Index):
        """(base_reg, offset) for a constant index into a frame array.

        Real compilers fold constant indices into the ``±IMM($sp)``
        addressing mode; this keeps e.g. unrolled table initialization
        ``$sp``-relative (morphable) instead of address-computed.
        Returns None when the access needs dynamic address arithmetic.
        """
        if not isinstance(expr.index, ast.IntLiteral):
            return None
        if not isinstance(expr.base, ast.VarRef):
            return None
        symbol = getattr(expr.base, "symbol", None)
        if symbol is None or symbol.kind == "global" or not symbol.is_array:
            return None
        if not 0 <= expr.index.value < symbol.array_size:
            return None
        offset = self.slot_ref(symbol, 8 * expr.index.value)
        return self.frame_base_reg(symbol), offset

    def gen_address_of_index(self, expr: ast.Index) -> None:
        """Push the address of ``base[index]``."""
        slot = self.constant_slot(expr)
        if slot is not None:
            base, offset = slot
            reg = self.push()
            self.emit(f"lda {reg}, {offset}({base})")
            return
        self.gen_expression(expr.base)
        self.gen_expression(expr.index)
        index, base = self.pop_many(2)
        reg = self.push(avoid=(base,))
        self.emit(f"sll {index}, 3, {reg}")
        self.emit(f"addq {base}, {reg}, {reg}")

    def gen_call(self, expr: ast.Call) -> None:
        if expr.name == "print":
            self.gen_expression(expr.args[0])
            reg = self.pop()
            self.emit(f"print {reg}")
            result = self.push()
            self.emit(f"lda {result}, 0(zero)")
            return
        if expr.name == "alloc":
            self.gen_alloc(expr)
            return
        if expr.name == "load32":
            # 32-bit partial-word load: ldl from pointer + byte offset.
            self.gen_expression(expr.args[0])
            self.gen_expression(expr.args[1])
            offset, base = self.pop_many(2)
            reg = self.push(avoid=(base,))
            self.emit(f"addq {base}, {offset}, {reg}")
            self.emit(f"ldl {reg}, 0({reg})")
            return
        if expr.name == "store32":
            # 32-bit partial-word store: stl to pointer + byte offset.
            self.gen_expression(expr.args[0])
            self.gen_expression(expr.args[1])
            self.gen_expression(expr.args[2])
            value, offset, base = self.pop_many(3)
            address = self.push(avoid=(base, value))
            self.emit(f"addq {base}, {offset}, {address}")
            self.emit(f"stl {value}, 0({address})")
            self.pop()
            result = self.push()
            self.emit(f"lda {result}, 0(zero)")
            return
        for argument in expr.args:
            self.gen_expression(argument)
        for index in reversed(range(len(expr.args))):
            reg = self.pop()
            self.emit(f"addq {reg}, 0, {_ARG_REGS[index]}")
        self.spill_all()
        self.emit(f"bsr {expr.name}")
        result = self.push()
        self.emit(f"addq v0, 0, {result}")

    def gen_alloc(self, expr: ast.Call) -> None:
        """Bump-allocate ``n`` quad-words from the heap region."""
        self.gen_expression(expr.args[0])
        count = self.pop()
        size = self.push()
        self.stack[-1].pinned = True
        self.emit(f"sll {count}, 3, {size}")
        pointer = self.push()
        self.stack[-1].pinned = True
        self.emit(f"lda {pointer}, {_HEAP_PTR_SYMBOL}")
        old = self.push()
        self.stack[-1].pinned = True
        self.emit(f"ldq {old}, 0({pointer})")
        self.push()  # scratch for the bumped heap pointer
        bump, old_r, pointer_r, size_r = self.pop_many(4)
        self.emit(f"addq {old_r}, {size_r}, {bump}")
        self.emit(f"stq {bump}, 0({pointer_r})")
        result = self.push()
        self.emit(f"addq {old_r}, 0, {result}")


class CodeGenerator:
    """Compile a MiniC translation unit into assembler text."""

    def __init__(self, options: Optional[CodegenOptions] = None):
        self.options = options or CodegenOptions()

    def generate(self, unit: ast.TranslationUnit) -> str:
        analyze(unit)
        data_bytes = 8 + sum(8 * (g.array_size or 1) for g in unit.globals)
        if data_bytes > _DATA_REGION_BYTES:
            raise CodegenError(
                f"globals need {data_bytes:,} bytes; the data region holds "
                f"{_DATA_REGION_BYTES:,} bytes"
            )
        sections: List[str] = [".data"]
        sections.append(f"{_HEAP_PTR_SYMBOL}: .quad 0")
        for global_var in unit.globals:
            sections.append(self._global_directive(global_var))
        sections.append("")
        sections.append(".text")
        sections.append("__start:")
        sections.append(f"    lda t0, {_HEAP_PTR_SYMBOL}")
        sections.append(f"    lda t1, {HEAP_BASE}(zero)")
        sections.append("    stq t1, 0(t0)")
        sections.append("    bsr main")
        sections.append("    halt")
        for function in unit.functions:
            emitter = _FunctionEmitter(self, function)
            sections.extend(emitter.generate())
        return "\n".join(sections) + "\n"

    @staticmethod
    def _global_directive(global_var: ast.GlobalVar) -> str:
        size = global_var.array_size or 1
        values = list(global_var.initializer[:size])
        if values:
            values.extend([0] * (size - len(values)))
            rendered = ", ".join(str(v) for v in values)
            return f"{global_var.name}: .quad {rendered}"
        return f"{global_var.name}: .space {8 * size}"


def compile_to_assembly(
    source: str, options: Optional[CodegenOptions] = None
) -> str:
    """Compile MiniC ``source`` to assembler text.

    At ``opt_level >= 1`` the text is the rendering of the *optimized*
    program, so what this returns always assembles to exactly what
    :func:`compile_program` executes.
    """
    unit = parse(source)
    text = CodeGenerator(options).generate(unit)
    if options is not None and options.opt_level >= 1:
        from repro.isa.assembler import assemble
        from repro.isa.printer import render_program
        from repro.lang.opt import optimize_program

        optimized, _stats = optimize_program(
            assemble(text, entry="__start")
        )
        text = render_program(optimized)
    return text


def compile_program(source: str, options: Optional[CodegenOptions] = None):
    """Compile MiniC ``source`` all the way to an executable Program."""
    from repro.isa.assembler import assemble

    unit = parse(source)
    text = CodeGenerator(options).generate(unit)
    program = assemble(text, entry="__start")
    if options is not None and options.opt_level >= 1:
        from repro.lang.opt import optimize_program

        program, _stats = optimize_program(program)
    return program
