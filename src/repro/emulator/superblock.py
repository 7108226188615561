"""Superblock replay engine: batch-decoded micro-op templates.

The emulator's step path pays per retired instruction for a bounds
check, a tuple unpack and an integer dispatch.  A basic block makes
almost all of that work redundant: from its entry through its control
transfer the instruction sequence is a pure function of the entry
``pc_index``.

This module gives the *simulator* the same trace-cache-style
microarchitecture the paper gives the stack: the first time a block is
entered, its decoded tuples, branch included, are compiled once into a
replayable micro-op *template*; every later entry replays it:

* the dynamic work (register updates, loads, stores, effective
  addresses) runs as a straight-line Python function compiled from the
  block once with ``exec`` — no per-instruction dispatch, no bounds
  check, no tuple unpack;
* the trace costs one segment id per visit, the template's ``tag``:
  the body records only what execution decides (each load's and
  store's effective address, ``$sp`` after each op that writes it, the
  branch outcome), and ``Machine.run`` fills the columns in bulk from
  the segment ids (see :mod:`repro.emulator.machine`);
* the block's branch, call or return ends the function, which returns
  the next ``pc_index``; ``Machine.run`` looks templates up only where
  a block is entered, so one-instruction blocks, and a window's last
  block when its template does not fit, run on the step path.

Templates are keyed on ``pc_index`` and **never invalidated**: the
text segment is immutable for the lifetime of a :class:`Machine`
(programs are assembled up front; there is no store-to-text path), so
a compiled template can never go stale.  Hit/miss/replayed counters
are surfaced through :mod:`repro.profiling` by ``Machine.run``.

Replay is bit-identical to step-decode by construction — the same
handler functions run in the same order against the same state, and
the body records what the step path records for the same ops — and is
gated differentially by ``tests/test_emulator_superblock.py`` (registry
and adversarial workloads plus hypothesis-fuzzed programs, branches,
calls, windows, and fault paths).  Faults and halts keep the step
path's semantics: when an op raises (division by zero, a bad effective
address, a bad call or jump target), ``Machine.run`` keeps the rows of
the ops that retired before it (:meth:`SuperblockTemplate.retired_before`)
and re-raises; a return to the halt sentinel raises :class:`_Halt`.

``set_superblock_enabled`` toggles the engine at runtime (the
differential gate and the benchmarks compare both paths in one
process); the step-decode walk remains the reference implementation.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.emulator.memory import MemoryError_, TEXT_BASE
from repro.trace.columnar import FLAG_SP_UPDATE

_MASK64 = (1 << 64) - 1

#: Blocks shorter than this, their control transfer counted, are not
#: worth a template: the fixed replay cost (a dict lookup and a call)
#: needs more than one instruction to amortize over.
MIN_BLOCK_LENGTH = 2

#: Runtime switch (see :func:`set_superblock_enabled`).  The
#: ``REPRO_SUPERBLOCK=0`` environment variable starts the process with
#: replay off — worker processes inherit it, so a whole ``--jobs N``
#: run can be forced onto the step-decode reference path (the CI
#: differential smoke compares both full reports byte-for-byte).
_ENABLED = os.environ.get("REPRO_SUPERBLOCK", "1") != "0"


def superblock_enabled() -> bool:
    """True when ``Machine.run`` replays templates on the packed path."""
    return _ENABLED


def set_superblock_enabled(enabled: bool) -> bool:
    """Toggle superblock replay; returns the previous state.

    Step-decode is the reference implementation; the differential
    tests and the benchmarks use this to run both paths in one
    process.  Disabling never drops compiled templates — re-enabling
    reuses them (text is immutable, so they cannot be stale).
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous


# Structural kinds, mirrored from repro.emulator.machine (kept as
# literals here to avoid a circular import).
_K_ALU = 0
_K_LOAD = 1
_K_LDA = 2
_K_STORE = 3
_K_CBR, _K_BR, _K_BSR, _K_JSR, _K_JMP = range(4, 9)  # control transfers
_K_PRINT = 9
_K_NOP = 11

#: Kinds a template may contain before its control transfer.
_STRAIGHT_KINDS = frozenset((_K_ALU, _K_LOAD, _K_LDA, _K_STORE,
                             _K_PRINT, _K_NOP))

#: Conditional-branch tests on the raw register ``v`` (``SB`` = bit 63).
_BRANCH_TESTS = {
    "beq": "v == 0", "bne": "v != 0", "blt": "v & SB",
    "ble": "v == 0 or v & SB", "bgt": "v != 0 and not v & SB",
    "bge": "not v & SB",
}

#: ALU handlers that are safe to inline as expressions.  Handlers that
#: need sign conversion or can raise stay as calls so error and
#: rounding semantics are byte-for-byte the step path's.
_INLINE_ALU = {
    "addq": "({a} + {b}) & M",
    "subq": "({a} - {b}) & M",
    "mulq": "({a} * {b}) & M",
    "and": "{a} & {b}",
    "or": "{a} | {b}",
    "xor": "{a} ^ {b}",
    "bic": "{a} & ~{b} & M",
    "sll": "({a} << ({b} & 63)) & M",
    "srl": "({a} & M) >> ({b} & 63)",
    "cmpeq": "1 if {a} == {b} else 0",
    "cmpult": "1 if {a} < {b} else 0",
}

#: ALU ops that can raise at runtime.  The body stores each one's
#: position in the progress cell first, so a mid-block fault can emit
#: exactly the rows that retired before it.
_FAULTING_ALU = frozenset(("divq", "remq"))

_ZERO = 31
_SP = 30
_RA = 26


class _Halt(Exception):
    """A replayed return reached the halt sentinel (it retired)."""


class SuperblockTemplate:
    """One compiled basic block.

    ``Machine.run`` records :attr:`tag` as the block's one trace
    segment, calls :attr:`fn` against live machine state, continues at
    the ``pc_index`` it returns and advances ``count`` by
    :attr:`length`, the control transfer included.
    """

    __slots__ = ("start_index", "length", "tag", "mem_positions",
                 "progress", "fn")

    def __init__(self, start_index, length, tag, fn, mem_positions):
        self.start_index = start_index
        self.length = length
        #: segment id in the machine's run record: the text length
        #: plus ``start_index``, so it never collides with a stepped
        #: instruction's index.
        self.tag = tag
        #: block positions of the loads and stores, in op order
        self.mem_positions = mem_positions
        #: Shared progress cell: the body stores the position of an op
        #: that can fault (a divide, a call, jump or return) before it does.
        self.progress = [0]
        self.fn = fn

    def retired_before(self, error: Exception, addresses: int) -> int:
        """Ops of the block that retired before ``error`` was raised.

        ``addresses`` counts the effective addresses the faulting call
        recorded.  A memory fault strikes the first memory op whose
        address was not recorded; the others (a divide by zero, a bad
        call or jump target) set the progress cell first.
        """
        if isinstance(error, MemoryError_):
            return self.mem_positions[addresses]
        return self.progress[0]


def build_template(decoded, start_index, halt_address,
                   index_of) -> Optional[SuperblockTemplate]:
    """Compile the basic block at ``start_index``, or None.

    ``decoded`` is ``Machine``'s per-instruction execution tuples (the
    ALU handler or branch predicate rides in the tuple itself, and its
    last field holds the flag bits that say what a retired instruction
    records).  A ``ret``/``jmp`` to ``halt_address`` halts; a bad target
    faults through ``index_of``, the step path's check.  Returns None
    when the block is shorter than :data:`MIN_BLOCK_LENGTH` (the caller
    caches the None so the lookup never repeats the walk).
    """
    limit = len(decoded)
    index = start_index
    ops = []
    while index < limit:
        entry = decoded[index]
        if entry[0] not in _STRAIGHT_KINDS:
            break
        ops.append(entry)
        index += 1
    # A control transfer joins the block; a halt ends it with none.
    transfer = index < limit and _K_CBR <= decoded[index][0] <= _K_JMP
    length = index - start_index + transfer
    if length < MIN_BLOCK_LENGTH:
        return None

    mem_positions = []

    # ---------------------------------------------------------- body
    # R=registers W=memory word dict ml/mls/ms=Memory methods (fault
    # fallback) oa=output.append A/S/O=the run's address, $sp and
    # branch-outcome records P=progress cell.  Aligned memory
    # accesses are inlined against W with the exact semantics of
    # Memory.load/load_signed/store; the method call survives only on
    # the fault path (misalignment), so error type and message are the
    # step path's.  Each load and store records its effective address
    # once it completed, and each op that writes $sp records the new
    # value.  Before each divq/remq the body records how many ops
    # retired so far (``P[0] = position``); memory-fault progress is
    # recovered from the addresses recorded instead.
    lines = ["def _replay(R, W, ml, mls, ms, oa, A, S, O, P):"]
    body_start = len(lines)
    namespace = {"M": _MASK64, "SB": 1 << 63, "Halt": _Halt, "J": index_of}
    for position, op in enumerate(ops):
        kind, fn, rd, ra, rb, imm, rimm, _target, mem_size, records = op
        if kind == _K_ALU:
            if rimm is not None:
                right = repr(rimm)
            else:
                right = f"R[{rb}]"
            name = getattr(fn, "__name__", "")[5:]  # _alu_<name>
            inline = _INLINE_ALU.get(name)
            if name in _FAULTING_ALU:
                lines.append(f"    P[0] = {position}")
            if inline is not None:
                expr = inline.format(a=f"R[{ra}]", b=right)
                if rd != _ZERO:
                    lines.append(f"    R[{rd}] = {expr}")
                # Pure expression, dead destination: nothing to do.
            else:
                handler = f"H{position}"
                namespace[handler] = fn
                if rd != _ZERO:
                    lines.append(f"    R[{rd}] = {handler}(R[{ra}], {right})")
                elif name in _FAULTING_ALU:
                    # Division by zero must still raise.
                    lines.append(f"    {handler}(R[{ra}], {right})")
        elif kind == _K_LOAD:
            mem_positions.append(position)
            lines.append(f"    a = (R[{rb}] + {imm}) & M")
            if mem_size == 8:
                load = "WG(a, 0) if not a & 7 else ml(a, 8)"
                if rd != _ZERO:
                    lines.append(f"    R[{rd}] = {load}")
                else:
                    lines.append(f"    ({load})")
            else:
                lines.append(
                    "    v = ((WG(a & -8, 0) >> ((a & 4) << 3))"
                    " & 0xFFFFFFFF) if not a & 3 else mls(a, 4)"
                )
                if rd != _ZERO:
                    lines.append(
                        f"    R[{rd}] = (v - 0x100000000) & M"
                        " if v & 0x80000000 else v"
                    )
            lines.append("    A(a)")
        elif kind == _K_LDA:
            if rd != _ZERO:
                lines.append(f"    R[{rd}] = (R[{rb}] + {imm}) & M")
        elif kind == _K_STORE:
            mem_positions.append(position)
            lines.append(f"    a = (R[{rb}] + {imm}) & M")
            if mem_size == 8:
                lines.append("    if a & 7:")
                lines.append(f"        ms(a, R[{rd}], 8)")
                lines.append("    else:")
                lines.append(f"        W[a] = R[{rd}] & M")
            else:
                lines.append("    if a & 3:")
                lines.append(f"        ms(a, R[{rd}], 4)")
                lines.append("    else:")
                lines.append("        b = a & -8")
                lines.append("        s = (a & 4) << 3")
                lines.append(
                    "        W[b] = (WG(b, 0) & ~(0xFFFFFFFF << s))"
                    f" | ((R[{rd}] & 0xFFFFFFFF) << s)"
                )
            lines.append("    A(a)")
        elif kind == _K_PRINT:
            namespace.setdefault("SG", _signed)
            lines.append(f"    oa(SG(R[{ra}]))")
        # _K_NOP: retires a row but computes nothing.
        if records & FLAG_SP_UPDATE:
            lines.append(f"    S(R[{_SP}])")
    if mem_positions:
        lines.insert(body_start, "    WG = W.get")
    lines += _transfer(decoded[index] if transfer else None, index,
                       len(ops), halt_address)
    exec(compile("\n".join(lines), "<superblock>", "exec"), namespace)
    return SuperblockTemplate(start_index, length, limit + start_index,
                              namespace["_replay"], mem_positions)


def _transfer(op, index, position, halt_address):
    """Body lines that end a block at ``index`` by returning the next
    ``pc_index``; ``op`` is its control transfer, or None."""
    if op is None:
        return [f"    return {index}"]
    kind, fn, _rd, ra, rb, _imm, _rimm, target, _size, _records = op
    if kind == _K_CBR:
        test = _BRANCH_TESTS[fn.__name__[6:]]  # _cond_<name>
        return [f"    v = R[{ra}]", f"    if {test}:", "        O(1)",
                f"        return {target}", "    O(0)",
                f"    return {index + 1}"]
    if kind == _K_BR:
        return [f"    return {target}"]
    link = f"    R[{_RA}] = {TEXT_BASE + 4 * (index + 1)}"
    if kind == _K_BSR:
        return [link, f"    return {target}"]
    lines = [f"    d = R[{rb}]"]
    if kind == _K_JSR:
        lines.append(link)
    else:
        lines += [f"    if d == {halt_address}:", "        raise Halt"]
    return lines + [f"    if d & 3 or d < {TEXT_BASE}:",
                    f"        P[0] = {position}", "        J(d)",
                    f"    return (d - {TEXT_BASE}) >> 2"]


def _signed(value: int) -> int:
    return value - (1 << 64) if value & (1 << 63) else value


__all__ = [
    "MIN_BLOCK_LENGTH",
    "SuperblockTemplate",
    "build_template",
    "set_superblock_enabled",
    "superblock_enabled",
]
