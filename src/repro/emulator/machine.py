"""Functional emulator for the Alpha-like ISA.

Executes an assembled :class:`~repro.isa.instructions.Program` and, when
given a :class:`~repro.trace.columnar.ColumnarTrace`, extends its
columns by one row per retired instruction.  The emulator is purely
functional (no timing): the out-of-order timing model in
:mod:`repro.uarch` replays the emitted stream, which carries full
register- and memory-dependence information.

Static instructions are pre-decoded once into flat tuples keyed by an
*integer* structural kind (plus a precomputed ALU/branch handler), so
the interpretation loop dispatches on small-int comparisons instead of
opcode strings.

Most of a row is fixed by the static instruction.  A traced run
records, per retired segment, one int (the stepped instruction's index
or the ``tag`` of a replayed superblock, a whole basic block compiled
by :mod:`repro.emulator.superblock`) and beyond that only what
execution decides: each load's and store's effective address, ``$sp``
after each instruction that writes it, and each conditional branch's
outcome.  Every ``_FLUSH_ROWS`` instructions (at the first segment
boundary past the mark), at the end of a run and on a fault,
``Machine._flush`` extends the columns in bulk: the eleven static
columns are gathered from per-program tables, the addresses are
scattered into the memory rows, ``$sp`` is forward-filled, the taken
bit is set on taken conditional rows, and each row's ``next_pc`` is the
next row's ``pc``.

Columns are the only trace protocol: a consumer that must not hold a
whole run calls :meth:`Machine.run` repeatedly with a bounded
``max_instructions`` and a fresh trace per chunk (see
``repro.harness.prediction``).
"""

from __future__ import annotations

from array import array
from time import perf_counter
from typing import List, Optional

import numpy as np

from repro import profiling
from repro.emulator import superblock as _superblock
from repro.emulator.memory import (
    DATA_BASE,
    Memory,
    MemoryError_,
    STACK_BASE,
    TEXT_BASE,
)
from repro.isa.encoding import OPCODE_NUMBERS
from repro.isa.instructions import OpClass, Program
from repro.isa.registers import RA, SP, ZERO
from repro.trace.columnar import (
    COLUMN_DTYPES,
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

#: Instructions a traced run retires between two column fills.  It
#: keeps each fill's numpy temporaries near 512 KB (65,536 × 8 B, plus
#: the rest of a superblock that crosses the mark) and makes a run's
#: working memory independent of its length.
_FLUSH_ROWS = 65_536

#: Stop count of a run without ``max_instructions``.
_UNLIMITED = 1 << 63

#: Columns fixed by the static instruction, gathered from the
#: per-program tables in ``Machine._static_row`` order.
_STATIC_COLUMNS = ("pc", "opcode", "flags", "size", "base", "dst",
                   "nsrc", "src0", "src1", "disp", "spimm")

_MEMORY = FLAG_LOAD | FLAG_STORE
#: Static flag bits that make a retired instruction record a value.
_RECORDED = _MEMORY | FLAG_CONDITIONAL | FLAG_SP_UPDATE


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

#: Kinds that always transfer control; ``halt`` never does.
_ALWAYS_TAKEN = (_K_BR, _K_BSR, _K_JSR, _K_JMP)


class _Record:
    """What a traced run recorded since its last column fill."""

    __slots__ = ("segments", "addresses", "sps", "outcomes", "sp")

    def __init__(self, sp: int):
        #: stepped instruction index or replayed template tag
        self.segments = array("q")
        #: effective address of each load and store
        self.addresses = array("Q")
        #: ``$sp`` after each instruction flagged ``FLAG_SP_UPDATE``
        self.sps = array("Q")
        #: 1 per taken conditional branch, 0 per fall-through
        self.outcomes = bytearray()
        #: ``$sp`` before the first recorded row
        self.sp = sp


def _grow(column, name: str, zeros: memoryview, count: int):
    """Extend ``column`` in place by ``count`` zeros; view them."""
    start = len(column)
    if isinstance(column, bytearray):
        column += zeros[:count]
        itemsize = 1
    else:
        itemsize = column.itemsize
        column.frombytes(zeros[: count * itemsize])
    return np.frombuffer(column, COLUMN_DTYPES[name],
                         count=count, offset=start * itemsize)


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
        static_rows = [
            self._static_row(i, instr)
            for i, instr in enumerate(program.instructions)
        ]
        self._decoded = [
            self._decode(instr, flags & _RECORDED)
            for instr, (_pc, _op, flags, *_rest) in zip(
                program.instructions, static_rows
            )
        ]
        # One table per static column, indexed by instruction.
        table = np.array(static_rows, dtype=np.int64).reshape(
            len(static_rows), len(_STATIC_COLUMNS)
        )
        self._static_tables = {
            name: table[:, i].astype(COLUMN_DTYPES[name])
            for i, name in enumerate(_STATIC_COLUMNS)
        }
        # Rows per segment id: 1 for a stepped index, the template's
        # length for a tag (text length + start index), once built.
        self._span = np.zeros(2 * len(static_rows), np.int64)
        self._span[: len(static_rows)] = 1
        self._pc_index = program.label_index(program.entry)
        # Sentinel return address: returning here halts the machine.
        self._halt_address = TEXT_BASE + 4 * len(program.instructions) + 4
        self.registers[RA] = self._halt_address
        # Superblock template cache, keyed on pc_index.  Text is
        # immutable, so entries are never invalidated: False = not yet
        # examined, None = block too short to template, else a
        # compiled SuperblockTemplate.
        self._superblocks: dict = {}

    @staticmethod
    def _decode(instr, records):
        """Execution tuple: (kind, fn, rd, ra, rb, imm, rimm, target,
        size, records).

        ``fn`` is the precomputed ALU handler or branch predicate;
        ``rimm`` is the pre-masked immediate right operand for
        immediate-form ALU ops (None for register form); ``records``
        holds the static flag bits of the values a traced run records
        when the instruction retires (``_RECORDED``).
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
        return (kind, fn, instr.rd, instr.ra, instr.rb, imm, rimm,
                instr.target_index, instr.spec.mem_size, records)

    @staticmethod
    def _static_row(index, instr):
        """Values of the ``_STATIC_COLUMNS``; ``flags`` carries the
        taken bit of the always-taken control transfers."""
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
        if _KINDS.get(instr.op) in _ALWAYS_TAKEN:
            flags |= FLAG_TAKEN
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
        instructions retired.  On a fault the trace keeps the rows of
        the instructions that retired before it, and neither
        ``instruction_count`` nor the pc advances.
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
        output_append = self.output.append
        decoded = self._decoded
        text_base = TEXT_BASE
        halt_address = self._halt_address
        count = self.instruction_count
        # Absolute stop count, computed once (not re-derived per step).
        limit = (
            count + max_instructions
            if max_instructions is not None
            else _UNLIMITED
        )
        pc_index = self._pc_index
        halted = self.halted
        num_instructions = len(decoded)

        columns = trace_sink
        superblocks = None
        sb_builds = sb_replays = sb_replayed = 0
        if columns is not None:
            record = _Record(registers[SP])
            seg_append = record.segments.append
            addr_append = record.addresses.append
            sp_append = record.sps.append
            outcome_append = record.outcomes.append
            if _superblock._ENABLED:
                superblocks = self._superblocks
                sb_get = superblocks.get
                sb_build = _superblock.build_template
                span = self._span
                mem_words = memory._words
        # Templates are looked up only where a block is entered: at the
        # start of a run, after a replay or a stepped control transfer.
        replay = entered = superblocks is not None

        while True:
            bound = limit
            if columns is not None and count + _FLUSH_ROWS < limit:
                bound = count + _FLUSH_ROWS
            try:
                while count < bound and not halted:
                    if not 0 <= pc_index < num_instructions:
                        raise EmulatorError(
                            f"pc out of range: index {pc_index} "
                            f"(0x{text_base + 4 * pc_index:x})"
                        )
                    if entered:
                        template = sb_get(pc_index, False)
                        if template is False:
                            template = sb_build(decoded, pc_index,
                                                halt_address, self._index_of)
                            superblocks[pc_index] = template
                            if template is not None:
                                sb_builds += 1
                                span[template.tag] = template.length
                        if (
                            template is not None
                            and count + template.length <= limit
                        ):
                            seg_append(template.tag)
                            length = template.length
                            try:
                                pc_index = template.fn(
                                    registers, mem_words, mem_load,
                                    mem_load_signed, mem_store,
                                    output_append, addr_append, sp_append,
                                    outcome_append, template.progress,
                                )
                            except _superblock._Halt:
                                halted = True
                                pc_index = template.start_index + length - 1
                            except (EmulatorError, MemoryError_) as error:
                                pc_index = self._retire_partial(
                                    template, error, record
                                )
                                raise
                            count += length
                            sb_replays += 1
                            sb_replayed += length
                            continue
                        # The step path finishes the block.
                        entered = False
                    (kind, fn, rd, ra, rb, imm, rimm, target_index,
                     mem_size, records) = decoded[pc_index]
                    next_index = pc_index + 1

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
                        entered = replay
                    elif kind == 5:  # _K_BR
                        next_index = target_index
                        entered = replay
                    elif kind == 6:  # _K_BSR
                        registers[RA] = text_base + 4 * (pc_index + 1)
                        next_index = target_index
                        entered = replay
                    elif kind == 7:  # _K_JSR
                        destination = registers[rb]
                        registers[RA] = text_base + 4 * (pc_index + 1)
                        next_index = self._index_of(destination)
                        entered = replay
                    elif kind == 8:  # _K_JMP (ret / jmp)
                        destination = registers[rb]
                        if destination == halt_address:
                            halted = True
                            next_index = pc_index
                        else:
                            next_index = self._index_of(destination)
                        entered = replay
                    elif kind == 9:  # _K_PRINT
                        output_append(_signed(registers[ra]))
                    elif kind == 10:  # _K_HALT
                        halted = True
                        next_index = pc_index
                    # kind == 11 (_K_NOP): nothing to do.

                    if columns is not None:
                        seg_append(pc_index)
                        if records:
                            if records & _MEMORY:
                                addr_append(addr)
                            if records & FLAG_SP_UPDATE:
                                sp_append(registers[SP])
                            if records & FLAG_CONDITIONAL:
                                outcome_append(taken)
                    count += 1
                    pc_index = next_index
            except (EmulatorError, MemoryError_):
                if columns is not None:
                    self._flush(columns, record, pc_index)
                raise
            if columns is not None:
                self._flush(columns, record, pc_index)
            if halted or count >= limit:
                break

        executed = count - self.instruction_count
        self.instruction_count = count
        self._pc_index = pc_index
        self.halted = halted
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

    def _rows(self, segments):
        """Instruction index of every row ``segments`` stands for."""
        ids = np.frombuffer(segments, np.int64)
        lengths = self._span[ids]
        starts = ids % len(self._decoded)
        del ids
        # Each row is the one before plus one, except where a segment
        # starts: there it jumps to the segment's first instruction.
        jumps = starts.copy()
        jumps[1:] -= starts[:-1] + lengths[:-1] - 1
        rows = np.ones(int(lengths.sum()), np.int64)
        rows[np.cumsum(lengths) - lengths] = jumps
        return np.cumsum(rows, out=rows)

    def _retire_partial(self, template, error, record) -> int:
        """Record the ops of a faulting replay that retired before
        ``error``, in place of its tag; return the faulting index."""
        segments = record.segments
        del segments[-1]
        flags = self._static_tables["flags"][self._rows(segments)]
        earlier = np.count_nonzero(flags & _MEMORY)
        retired = template.retired_before(
            error, len(record.addresses) - earlier
        )
        start = template.start_index
        segments.extend(range(start, start + retired))
        return start + retired

    def _flush(self, columns, record, stop_index) -> None:
        """Extend every column by the rows ``record`` holds; clear it.

        ``stop_index`` is the instruction the machine stopped at: the
        last row's ``next_pc``.
        """
        if not record.segments:
            return
        rows = self._rows(record.segments)
        total = len(rows)
        zeros = memoryview(bytes(8 * total))
        tails = {}
        for name, table in self._static_tables.items():
            tail = tails[name] = _grow(
                getattr(columns, name), name, zeros, total
            )
            np.take(table, rows, out=tail, mode="clip")
        flags = tails["flags"]
        addr = _grow(columns.addr, "addr", zeros, total)
        addr[np.flatnonzero(flags & _MEMORY)] = np.frombuffer(
            record.addresses, np.uint64
        )
        # $sp: the value recorded at the last $sp write at or before
        # each row (``record.sp`` before the first one).
        values = np.empty(len(record.sps) + 1, np.uint64)
        values[0] = record.sp
        values[1:] = np.frombuffer(record.sps, np.uint64)
        writes = np.zeros(total, np.intp)
        writes[np.flatnonzero(flags & FLAG_SP_UPDATE)] = 1
        np.take(
            values,
            np.cumsum(writes, out=writes),
            out=_grow(columns.sp, "sp", zeros, total),
            mode="clip",
        )
        flags[np.flatnonzero(flags & FLAG_CONDITIONAL)] |= (
            np.frombuffer(record.outcomes, np.uint8) * FLAG_TAKEN
        )
        next_pc = _grow(columns.next_pc, "next_pc", zeros, total)
        next_pc[:-1] = tails["pc"][1:]
        next_pc[-1] = TEXT_BASE + 4 * stop_index
        del record.segments[:]
        del record.addresses[:]
        del record.sps[:]
        del record.outcomes[:]
        record.sp = self.registers[SP]

    @staticmethod
    def _index_of(address: int) -> int:
        if address % 4 != 0 or address < TEXT_BASE:
            raise EmulatorError(f"bad jump target 0x{address:x}")
        return (address - TEXT_BASE) // 4


def run_program(program: Program, max_instructions: Optional[int] = None):
    """Run ``program`` to completion (or the instruction limit).

    Returns ``(machine, trace)`` where ``trace`` is the run's
    :class:`ColumnarTrace`.
    """
    machine = Machine(program)
    trace = ColumnarTrace()
    machine.run(max_instructions=max_instructions, trace_sink=trace)
    return machine, trace
