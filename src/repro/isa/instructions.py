"""Instruction set definition for the Alpha-like ISA.

The set is deliberately modeled on the subset of the Alpha AXP
instruction set that SPECint-style integer code exercises:

* quad-word (64-bit) and long-word (32-bit) loads and stores with
  ``±IMM(base)`` addressing — the only addressing mode, as on Alpha;
* ``lda`` (load address), which the Alpha compiler uses for stack
  pointer adjustments (``lda $sp, -N($sp)``) — the SVF watches exactly
  this instruction to track top-of-stack changes;
* three-operand integer ALU operations, with either a register or an
  immediate second operand;
* compare-and-branch-against-zero conditional branches, unconditional
  branches, and the call/return pair ``bsr``/``ret`` plus their
  indirect forms ``jsr``/``jmp``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Optional, Tuple

from repro.isa.registers import SP, ZERO, register_name


class OpClass(Enum):
    """Coarse functional classification used by the timing model."""

    IALU = auto()
    IMULT = auto()
    LOAD = auto()
    STORE = auto()
    BRANCH = auto()
    CALL = auto()
    RETURN = auto()
    SYSTEM = auto()


@dataclass(frozen=True)
class OpSpec:
    """Static properties of one opcode."""

    name: str
    op_class: OpClass
    #: memory access size in bytes (0 for non-memory ops)
    mem_size: int = 0
    #: True if the second ALU operand may be an immediate
    allows_imm: bool = True


_SPECS = [
    # Memory operations.
    OpSpec("ldq", OpClass.LOAD, mem_size=8),
    OpSpec("ldl", OpClass.LOAD, mem_size=4),
    OpSpec("stq", OpClass.STORE, mem_size=8),
    OpSpec("stl", OpClass.STORE, mem_size=4),
    # Load-address: rd = rb + imm (an ALU op that uses memory syntax).
    OpSpec("lda", OpClass.IALU),
    # Integer ALU.
    OpSpec("addq", OpClass.IALU),
    OpSpec("subq", OpClass.IALU),
    OpSpec("mulq", OpClass.IMULT),
    OpSpec("divq", OpClass.IMULT),
    OpSpec("remq", OpClass.IMULT),
    OpSpec("and", OpClass.IALU),
    OpSpec("or", OpClass.IALU),
    OpSpec("xor", OpClass.IALU),
    OpSpec("bic", OpClass.IALU),
    OpSpec("sll", OpClass.IALU),
    OpSpec("srl", OpClass.IALU),
    OpSpec("sra", OpClass.IALU),
    OpSpec("cmpeq", OpClass.IALU),
    OpSpec("cmplt", OpClass.IALU),
    OpSpec("cmple", OpClass.IALU),
    OpSpec("cmpult", OpClass.IALU),
    # Control transfer.  Conditional branches test one register vs zero.
    OpSpec("beq", OpClass.BRANCH, allows_imm=False),
    OpSpec("bne", OpClass.BRANCH, allows_imm=False),
    OpSpec("blt", OpClass.BRANCH, allows_imm=False),
    OpSpec("ble", OpClass.BRANCH, allows_imm=False),
    OpSpec("bgt", OpClass.BRANCH, allows_imm=False),
    OpSpec("bge", OpClass.BRANCH, allows_imm=False),
    OpSpec("br", OpClass.BRANCH, allows_imm=False),
    OpSpec("bsr", OpClass.CALL, allows_imm=False),
    OpSpec("jsr", OpClass.CALL, allows_imm=False),
    OpSpec("ret", OpClass.RETURN, allows_imm=False),
    OpSpec("jmp", OpClass.BRANCH, allows_imm=False),
    # System.
    OpSpec("halt", OpClass.SYSTEM, allows_imm=False),
    OpSpec("print", OpClass.SYSTEM, allows_imm=False),
    OpSpec("nop", OpClass.SYSTEM, allows_imm=False),
]

OPCODES = {spec.name: spec for spec in _SPECS}

CONDITIONAL_BRANCHES = {"beq", "bne", "blt", "ble", "bgt", "bge"}

# Per-opcode tables behind the predicates of :class:`Instruction`,
# which the analyses ask at every instruction step of every pass.
_OP_CLASS = {spec.name: spec.op_class for spec in _SPECS}
_MEM_SIZE = {spec.name: spec.mem_size for spec in _SPECS}


def _opcodes(*classes: OpClass) -> frozenset:
    return frozenset(
        spec.name for spec in _SPECS if spec.op_class in classes
    )


_LOADS = _opcodes(OpClass.LOAD)
_STORES = _opcodes(OpClass.STORE)
_BRANCHES = _opcodes(OpClass.BRANCH, OpClass.CALL, OpClass.RETURN)
_CALLS = _opcodes(OpClass.CALL)
_RETURNS = _opcodes(OpClass.RETURN)
#: Opcodes that write ``rd``: loads, ``lda`` and the other ALU and
#: multiply ops, and ``bsr``/``jsr`` (the return-address register).
_WRITES_RD = _opcodes(OpClass.LOAD, OpClass.IALU, OpClass.IMULT) | {
    "bsr", "jsr",
}


class InstructionError(ValueError):
    """Raised for malformed instructions."""


@dataclass
class Instruction:
    """One static instruction.

    Operand roles by format:

    * memory ops (``ldq rd, imm(rb)`` / ``stq rd, imm(rb)``): ``rd`` is
      the data register (destination for loads, source for stores),
      ``rb`` is the base register, ``imm`` the displacement;
    * ``lda rd, imm(rb)``: ``rd = rb + imm``;
    * ALU ops (``addq ra, rb, rd`` or ``addq ra, imm, rd``);
    * conditional branches (``beq ra, label``): test ``ra`` vs zero;
    * ``br label`` / ``bsr label``; ``jsr rb`` / ``jmp rb``; ``ret``.
    """

    op: str
    rd: Optional[int] = None
    ra: Optional[int] = None
    rb: Optional[int] = None
    imm: Optional[int] = None
    target: Optional[str] = None
    #: resolved branch-target instruction index (filled by the assembler)
    target_index: Optional[int] = None

    def __post_init__(self) -> None:
        if self.op not in OPCODES:
            raise InstructionError(f"unknown opcode {self.op!r}")

    @property
    def spec(self) -> OpSpec:
        return OPCODES[self.op]

    @property
    def op_class(self) -> OpClass:
        return _OP_CLASS[self.op]

    @property
    def is_load(self) -> bool:
        return self.op in _LOADS

    @property
    def is_store(self) -> bool:
        return self.op in _STORES

    @property
    def is_mem(self) -> bool:
        return _MEM_SIZE[self.op] > 0

    @property
    def mem_size(self) -> int:
        return _MEM_SIZE[self.op]

    @property
    def is_branch(self) -> bool:
        return self.op in _BRANCHES

    @property
    def is_conditional(self) -> bool:
        return self.op in CONDITIONAL_BRANCHES

    @property
    def is_call(self) -> bool:
        return self.op in _CALLS

    @property
    def is_return(self) -> bool:
        return self.op in _RETURNS

    @property
    def is_sp_adjust(self) -> bool:
        """True for ``lda $sp, imm($sp)`` — the paper's TOS update."""
        return self.op == "lda" and self.rd == SP and self.rb == SP

    @property
    def writes_sp(self) -> bool:
        """True when this instruction writes the stack pointer."""
        return self.destination_register() == SP

    def source_registers(self) -> Tuple[int, ...]:
        """Registers read by this instruction (excluding $zero)."""
        sources = []
        if self.is_load:
            sources.append(self.rb)
        elif self.is_store:
            sources.append(self.rd)
            sources.append(self.rb)
        elif self.op == "lda":
            sources.append(self.rb)
        elif self.op_class in (OpClass.IALU, OpClass.IMULT):
            sources.append(self.ra)
            if self.rb is not None:
                sources.append(self.rb)
        elif self.is_conditional:
            sources.append(self.ra)
        elif self.op in ("jsr", "jmp"):
            sources.append(self.rb)
        elif self.op == "ret":
            sources.append(self.rb)
        elif self.op == "print":
            sources.append(self.ra)
        return tuple(r for r in sources if r is not None and r != ZERO)

    def destination_register(self) -> Optional[int]:
        """Register written by this instruction, or None."""
        if self.op not in _WRITES_RD or self.rd == ZERO:
            return None
        return self.rd

    def render(self) -> str:
        """Render back to assembler syntax."""
        name = self.op
        if self.is_mem or name == "lda":
            return (
                f"{name} {register_name(self.rd)}, "
                f"{self.imm}({register_name(self.rb)})"
            )
        if self.op_class in (OpClass.IALU, OpClass.IMULT):
            second = (
                register_name(self.rb) if self.rb is not None else str(self.imm)
            )
            return (
                f"{name} {register_name(self.ra)}, {second}, "
                f"{register_name(self.rd)}"
            )
        if self.is_conditional:
            return f"{name} {register_name(self.ra)}, {self.target}"
        if name in ("br", "bsr"):
            return f"{name} {self.target}"
        if name in ("jsr", "jmp"):
            return f"{name} {register_name(self.rb)}"
        if name == "print":
            return f"{name} {register_name(self.ra)}"
        return name

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


@dataclass
class Program:
    """A fully assembled program.

    ``instructions`` is the text segment; instruction *i* lives at
    address ``text_base + 4 * i``.  ``data`` is the initial contents of
    the ``.data`` segment and ``symbols`` maps global names to absolute
    data addresses.
    """

    instructions: list = field(default_factory=list)
    labels: dict = field(default_factory=dict)
    data: bytearray = field(default_factory=bytearray)
    symbols: dict = field(default_factory=dict)
    entry: str = "main"

    def label_index(self, label: str) -> int:
        if label not in self.labels:
            raise KeyError(f"undefined label {label!r}")
        return self.labels[label]

    def __len__(self) -> int:
        return len(self.instructions)
