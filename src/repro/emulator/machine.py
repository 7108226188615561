"""Functional emulator for the Alpha-like ISA.

Executes an assembled :class:`~repro.isa.instructions.Program` and, when
given a :class:`~repro.trace.columnar.ColumnarTrace`, appends one entry
per retired instruction to its columns as raw integers.  The emulator
is purely functional (no timing): the out-of-order timing model in
:mod:`repro.uarch` replays the emitted stream, which carries full
register- and memory-dependence information.

Static instructions are pre-decoded once into flat tuples keyed by an
*integer* structural kind (plus a precomputed ALU/branch handler), so
the interpretation loop dispatches on small-int comparisons instead of
opcode strings.  Columns are the only trace protocol: a consumer that
must not hold a whole run calls :meth:`Machine.run` repeatedly with a
bounded ``max_instructions`` and a fresh trace per chunk (see
``repro.harness.prediction``).
"""

from __future__ import annotations

from time import perf_counter
from typing import List, Optional

from repro import profiling
from repro.emulator import superblock as _superblock
from repro.emulator.memory import (
    DATA_BASE,
    Memory,
    STACK_BASE,
    TEXT_BASE,
)
from repro.isa.encoding import OPCODE_NUMBERS
from repro.isa.instructions import OpClass, Program
from repro.isa.registers import RA, SP, ZERO
from repro.trace.columnar import (
    ColumnarTrace,
    FLAG_BRANCH,
    FLAG_CONDITIONAL,
    FLAG_LOAD,
    FLAG_SP_UPDATE,
    FLAG_STORE,
    FLAG_TAKEN,
)

_MASK64 = (1 << 64) - 1
_SIGN64 = 1 << 63


def _signed(value: int) -> int:
    return value - (1 << 64) if value & _SIGN64 else value


class EmulatorError(Exception):
    """Raised on runtime faults (bad jump, division by zero, ...)."""


# --------------------------------------------------------------------------
# Structural kinds: the interpretation loop dispatches on these small
# integers (ordered roughly by dynamic frequency).
# --------------------------------------------------------------------------
_K_ALU = 0
_K_LOAD = 1
_K_LDA = 2
_K_STORE = 3
_K_CBR = 4
_K_BR = 5
_K_BSR = 6
_K_JSR = 7
_K_JMP = 8  # ret / jmp (indirect, may hit the halt sentinel)
_K_PRINT = 9
_K_HALT = 10
_K_NOP = 11


# ALU handler table: one precomputed function per opcode, looked up once
# at decode time (replaces the per-instruction string-compare chain).
def _alu_addq(left, right):
    return (left + right) & _MASK64


def _alu_subq(left, right):
    return (left - right) & _MASK64


def _alu_mulq(left, right):
    return (left * right) & _MASK64


def _divide(left, right):
    divisor = _signed(right)
    if divisor == 0:
        raise EmulatorError("integer division by zero")
    dividend = _signed(left)
    quotient = abs(dividend) // abs(divisor)
    if (dividend < 0) != (divisor < 0):
        quotient = -quotient
    return dividend, divisor, quotient


def _alu_divq(left, right):
    _, _, quotient = _divide(left, right)
    return quotient & _MASK64


def _alu_remq(left, right):
    dividend, divisor, quotient = _divide(left, right)
    return (dividend - quotient * divisor) & _MASK64


def _alu_and(left, right):
    return left & right


def _alu_or(left, right):
    return left | right


def _alu_xor(left, right):
    return left ^ right


def _alu_bic(left, right):
    return left & ~right & _MASK64


def _alu_sll(left, right):
    return (left << (right & 63)) & _MASK64


def _alu_srl(left, right):
    return (left & _MASK64) >> (right & 63)


def _alu_sra(left, right):
    return (_signed(left) >> (right & 63)) & _MASK64


def _alu_cmpeq(left, right):
    return 1 if left == right else 0


def _alu_cmplt(left, right):
    return 1 if _signed(left) < _signed(right) else 0


def _alu_cmple(left, right):
    return 1 if _signed(left) <= _signed(right) else 0


def _alu_cmpult(left, right):
    return 1 if left < right else 0


_ALU_HANDLERS = {
    "addq": _alu_addq,
    "subq": _alu_subq,
    "mulq": _alu_mulq,
    "divq": _alu_divq,
    "remq": _alu_remq,
    "and": _alu_and,
    "or": _alu_or,
    "xor": _alu_xor,
    "bic": _alu_bic,
    "sll": _alu_sll,
    "srl": _alu_srl,
    "sra": _alu_sra,
    "cmpeq": _alu_cmpeq,
    "cmplt": _alu_cmplt,
    "cmple": _alu_cmple,
    "cmpult": _alu_cmpult,
}


# Conditional-branch predicates over the signed test-register value.
def _cond_beq(value):
    return value == 0


def _cond_bne(value):
    return value != 0


def _cond_blt(value):
    return value < 0


def _cond_ble(value):
    return value <= 0


def _cond_bgt(value):
    return value > 0


def _cond_bge(value):
    return value >= 0


_COND_PREDICATES = {
    "beq": _cond_beq,
    "bne": _cond_bne,
    "blt": _cond_blt,
    "ble": _cond_ble,
    "bgt": _cond_bgt,
    "bge": _cond_bge,
}

_KINDS = {
    "lda": _K_LDA,
    "br": _K_BR,
    "bsr": _K_BSR,
    "jsr": _K_JSR,
    "ret": _K_JMP,
    "jmp": _K_JMP,
    "print": _K_PRINT,
    "halt": _K_HALT,
    "nop": _K_NOP,
}


class Machine:
    """Functional machine state plus the interpretation loop."""

    def __init__(self, program: Program, stack_base: int = STACK_BASE):
        self.program = program
        self.memory = Memory()
        self.registers: List[int] = [0] * 32
        self.stack_base = stack_base
        self.registers[SP] = stack_base
        self.output: List[int] = []
        self.instruction_count = 0
        self.halted = False
        self.memory.write_bytes(DATA_BASE, bytes(program.data))
        self._decoded = [self._decode(instr) for instr in program.instructions]
        self._emit_cols = [
            self._decode_columnar(i, instr)
            for i, instr in enumerate(program.instructions)
        ]
        self._pc_index = program.label_index(program.entry)
        # Sentinel return address: returning here halts the machine.
        self._halt_address = TEXT_BASE + 4 * len(program.instructions) + 4
        self.registers[RA] = self._halt_address
        # Superblock template cache, keyed on pc_index.  Text is
        # immutable, so entries are never invalidated: False = not yet
        # examined, None = region too short to template, else a
        # compiled SuperblockTemplate.
        self._superblocks: dict = {}
        self._superblock_builds = 0
        self._superblock_replays = 0
        self._superblock_replayed = 0

    @staticmethod
    def _decode(instr):
        """Execution tuple: (kind, fn, rd, ra, rb, imm, rimm, target, size).

        ``fn`` is the precomputed ALU handler or branch predicate;
        ``rimm`` is the pre-masked immediate right operand for
        immediate-form ALU ops (None for register form).
        """
        op = instr.op
        op_class = instr.op_class
        imm = instr.imm if instr.imm is not None else 0
        fn = None
        rimm = None
        if op_class is OpClass.LOAD:
            kind = _K_LOAD
        elif op_class is OpClass.STORE:
            kind = _K_STORE
        elif op in _KINDS:
            kind = _KINDS[op]
        elif op_class is OpClass.IALU or op_class is OpClass.IMULT:
            kind = _K_ALU
            fn = _ALU_HANDLERS[op]
            if instr.rb is None:
                rimm = imm & _MASK64
        elif instr.is_conditional:
            kind = _K_CBR
            fn = _COND_PREDICATES[op]
        else:  # pragma: no cover - opcode table is closed
            raise EmulatorError(f"unimplemented opcode {op!r}")
        return (
            kind,
            fn,
            instr.rd,
            instr.ra,
            instr.rb,
            imm,
            rimm,
            instr.target_index,
            instr.spec.mem_size,
        )

    @staticmethod
    def _decode_columnar(index, instr):
        """Static column values: everything but addr/taken/next_pc/sp."""
        dst = instr.destination_register()
        srcs = instr.source_registers()
        is_mem = instr.is_mem
        flags = 0
        if instr.is_load:
            flags |= FLAG_LOAD
        if instr.is_store:
            flags |= FLAG_STORE
        if instr.is_branch:
            flags |= FLAG_BRANCH
        if instr.is_conditional:
            flags |= FLAG_CONDITIONAL
        if dst == SP:
            flags |= FLAG_SP_UPDATE
        imm = instr.imm if instr.imm is not None else 0
        spimm = imm if dst == SP and instr.op == "lda" and instr.rb == SP else 0
        return (
            TEXT_BASE + 4 * index,
            OPCODE_NUMBERS[instr.op],
            flags,
            instr.spec.mem_size,
            instr.rb if is_mem else -1,
            -1 if dst is None else dst,
            len(srcs),
            srcs[0] if len(srcs) > 0 else 0,
            srcs[1] if len(srcs) > 1 else 0,
            imm,
            spimm,
        )

    @property
    def pc(self) -> int:
        """Current program counter as a byte address."""
        return TEXT_BASE + 4 * self._pc_index

    def run(
        self,
        max_instructions: Optional[int] = None,
        trace_sink=None,
    ) -> int:
        """Run until ``halt`` or ``max_instructions``.

        ``trace_sink`` is a :class:`ColumnarTrace` that receives one
        entry per retired instruction, or ``None`` to trace nothing;
        anything else is a :class:`TypeError`.  Returns the number of
        instructions retired.
        """
        if trace_sink is not None and not isinstance(
            trace_sink, ColumnarTrace
        ):
            raise TypeError(
                "trace_sink must be a ColumnarTrace or None, not "
                f"{type(trace_sink).__name__}"
            )
        profiler = profiling.active()
        profile_started = perf_counter() if profiler is not None else 0.0
        registers = self.registers
        memory = self.memory
        mem_load = memory.load
        mem_load_signed = memory.load_signed
        mem_store = memory.store
        decoded = self._decoded
        text_base = TEXT_BASE
        count = self.instruction_count
        # Absolute stop count, computed once (not re-derived per step).
        stop = count + max_instructions if max_instructions is not None else None
        pc_index = self._pc_index
        num_instructions = len(decoded)

        columns = trace_sink
        superblocks = None
        sb_builds = sb_replays = sb_replayed = 0
        if columns is not None:
            emit_cols = self._emit_cols
            if _superblock._ENABLED:
                superblocks = self._superblocks
                sb_get = superblocks.get
                sb_build = _superblock.build_template
                output_append = self.output.append
                mem_words = memory._words
                # Batch appenders for the 12 static columns, bound once
                # per run call and shared by every template replay.
                sb_emitters = (
                    columns.pc.frombytes,
                    columns.opcode.extend,
                    columns.flags.extend,
                    columns.size.extend,
                    columns.base.frombytes,
                    columns.dst.frombytes,
                    columns.nsrc.extend,
                    columns.src0.extend,
                    columns.src1.extend,
                    columns.disp.frombytes,
                    columns.spimm.frombytes,
                    columns.next_pc.frombytes,
                )
            col_pc = columns.pc.append
            col_opcode = columns.opcode.append
            col_flags = columns.flags.append
            col_size = columns.size.append
            col_base = columns.base.append
            col_dst = columns.dst.append
            col_nsrc = columns.nsrc.append
            col_src0 = columns.src0.append
            col_src1 = columns.src1.append
            col_disp = columns.disp.append
            col_spimm = columns.spimm.append
            col_addr = columns.addr.append
            col_next_pc = columns.next_pc.append
            col_sp = columns.sp.append

        while not self.halted and (stop is None or count < stop):
            if not 0 <= pc_index < num_instructions:
                raise EmulatorError(
                    f"pc out of range: index {pc_index} "
                    f"(0x{text_base + 4 * pc_index:x})"
                )
            if superblocks is not None:
                template = sb_get(pc_index, False)
                if template is False:
                    template = sb_build(
                        decoded, emit_cols, pc_index, text_base
                    )
                    superblocks[pc_index] = template
                    if template is not None:
                        sb_builds += 1
                if template is not None and (
                    stop is None or count + template.length <= stop
                ):
                    template.replay(
                        registers, mem_words, mem_load, mem_load_signed,
                        mem_store, output_append, columns, sb_emitters,
                    )
                    count += template.length
                    pc_index = template.end_index
                    sb_replays += 1
                    sb_replayed += template.length
                    continue
            (
                kind,
                fn,
                rd,
                ra,
                rb,
                imm,
                rimm,
                target_index,
                mem_size,
            ) = decoded[pc_index]
            next_index = pc_index + 1
            addr = 0
            taken = False

            if kind == 0:  # _K_ALU
                result = fn(
                    registers[ra],
                    registers[rb] if rimm is None else rimm,
                )
                if rd != ZERO:
                    registers[rd] = result
            elif kind == 1:  # _K_LOAD
                addr = (registers[rb] + imm) & _MASK64
                value = (
                    mem_load(addr, 8)
                    if mem_size == 8
                    else mem_load_signed(addr, 4)
                )
                if rd != ZERO:
                    registers[rd] = value
            elif kind == 2:  # _K_LDA
                if rd != ZERO:
                    registers[rd] = (registers[rb] + imm) & _MASK64
            elif kind == 3:  # _K_STORE
                addr = (registers[rb] + imm) & _MASK64
                mem_store(addr, registers[rd], mem_size)
            elif kind == 4:  # _K_CBR
                value = registers[ra]
                if value & _SIGN64:
                    value -= 1 << 64
                taken = fn(value)
                if taken:
                    next_index = target_index
            elif kind == 5:  # _K_BR
                taken = True
                next_index = target_index
            elif kind == 6:  # _K_BSR
                taken = True
                registers[RA] = text_base + 4 * (pc_index + 1)
                next_index = target_index
            elif kind == 7:  # _K_JSR
                taken = True
                destination = registers[rb]
                registers[RA] = text_base + 4 * (pc_index + 1)
                next_index = self._index_of(destination)
            elif kind == 8:  # _K_JMP (ret / jmp)
                taken = True
                destination = registers[rb]
                if destination == self._halt_address:
                    self.halted = True
                    next_index = pc_index
                else:
                    next_index = self._index_of(destination)
            elif kind == 9:  # _K_PRINT
                self.output.append(_signed(registers[ra]))
            elif kind == 10:  # _K_HALT
                self.halted = True
                next_index = pc_index
            # kind == 11 (_K_NOP): nothing to do.

            if columns is not None:
                (
                    pc,
                    opnum,
                    flags,
                    size,
                    base,
                    dst,
                    nsrc,
                    src0,
                    src1,
                    disp,
                    spimm,
                ) = emit_cols[pc_index]
                col_pc(pc)
                col_opcode(opnum)
                col_flags(flags | FLAG_TAKEN if taken else flags)
                col_size(size)
                col_base(base)
                col_dst(dst)
                col_nsrc(nsrc)
                col_src0(src0)
                col_src1(src1)
                col_disp(disp)
                col_spimm(spimm)
                col_addr(addr)
                col_next_pc(text_base + 4 * next_index)
                col_sp(registers[SP])
            count += 1
            pc_index = next_index

        executed = count - self.instruction_count
        self.instruction_count = count
        self._pc_index = pc_index
        self._superblock_builds += sb_builds
        self._superblock_replays += sb_replays
        self._superblock_replayed += sb_replayed
        if profiler is not None:
            profiler.note(
                "emulate", perf_counter() - profile_started, executed
            )
            if sb_builds:
                profiler.count("superblock_builds", sb_builds)
            if sb_replays:
                profiler.count("superblock_replays", sb_replays)
                profiler.count(
                    "superblock_replayed_instructions", sb_replayed
                )
        return executed

    def _index_of(self, address: int) -> int:
        if address % 4 != 0 or address < TEXT_BASE:
            raise EmulatorError(f"bad jump target 0x{address:x}")
        return (address - TEXT_BASE) // 4

    @staticmethod
    def _alu(op: str, left: int, right: int) -> int:
        """Scalar ALU evaluation by opcode name (kept for tests/tools)."""
        handler = _ALU_HANDLERS.get(op)
        if handler is None:
            raise EmulatorError(f"unimplemented ALU op {op!r}")
        return handler(left, right)


def run_program(program: Program, max_instructions: Optional[int] = None):
    """Run ``program`` to completion (or the instruction limit).

    Returns ``(machine, trace)`` where ``trace`` is the run's
    :class:`ColumnarTrace`.
    """
    machine = Machine(program)
    trace = ColumnarTrace()
    machine.run(max_instructions=max_instructions, trace_sink=trace)
    return machine, trace
