"""Superblock replay engine: batch-decoded micro-op templates.

The emulator's emit loop is the last instruction-at-a-time walk on the
produce side of the pipeline: even appending straight into the columns,
``Machine.run`` pays per retired instruction for a bounds check, a
9-tuple unpack, an integer dispatch and fourteen column ``append``
calls.  Straight-line code makes almost all of that work redundant —
between two control transfers the instruction sequence, and therefore
twelve of the fourteen column values, are a pure function of the entry
``pc_index``.

This module gives the *simulator* the same trace-cache-style
microarchitecture the paper gives the stack: at the first execution of
a basic-block head, the decoded tuples of the straight-line region are
compiled once into a replayable micro-op *template*; every subsequent
visit replays the template:

* the static columns (``pc``, ``opcode``, ``flags``, ``size``,
  ``base``, ``dst``, ``nsrc``, ``src0``, ``src1``, ``disp``,
  ``spimm``, ``next_pc`` — and ``sp``/``addr`` when the block touches
  neither) are emitted as whole column *slices* via one batched
  ``frombytes``/``extend`` per column instead of one ``append`` per
  instruction;
* the dynamic work (register updates, loads, stores, effective
  addresses) runs as a straight-line Python function compiled from the
  block once with ``exec`` — no per-instruction dispatch, no bounds
  check, no tuple unpack;
* a single exit check hands control back to the step-decode
  interpreter at the terminating branch/call/return.

Templates are keyed on ``pc_index`` and **never invalidated**: the
text segment is immutable for the lifetime of a :class:`Machine`
(programs are assembled up front; there is no store-to-text path), so
a compiled template can never go stale.  Hit/miss/replayed counters
are surfaced through :mod:`repro.profiling` by ``Machine.run``.

Replay is bit-identical to step-decode by construction — the same
handler functions run in the same order against the same state, and
the emitted column slices carry the values the step path would have
appended — and is gated differentially by
``tests/test_emulator_superblock.py`` (all registry workloads plus
hypothesis-fuzzed programs, windows, and fault paths).  Faults keep
the step path's semantics: when an op raises (division by zero, a bad
effective address), the template emits the columns of the ops that
retired before it and re-raises, leaving registers and memory exactly
as the interpreter would have.

``set_superblock_enabled`` toggles the engine at runtime (the
differential gate and the benchmarks compare both paths in one
process); the step-decode walk remains the reference implementation.
"""

from __future__ import annotations

import os
from array import array
from typing import List, Optional

from repro.emulator.memory import MemoryError_
from repro.trace.columnar import ColumnarTrace

_MASK64 = (1 << 64) - 1

#: Blocks shorter than this are not worth a template: the fixed
#: replay cost (one call plus fourteen batched column extends) only
#: amortizes over a few instructions.
MIN_BLOCK_LENGTH = 3

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
# literals here to avoid a circular import; machine.py asserts the
# correspondence at import time via build_template's contract).
_K_ALU = 0
_K_LOAD = 1
_K_LDA = 2
_K_STORE = 3
_K_PRINT = 9
_K_NOP = 11

#: Kinds a template may contain (everything else terminates the block).
_STRAIGHT_KINDS = frozenset((_K_ALU, _K_LOAD, _K_LDA, _K_STORE,
                             _K_PRINT, _K_NOP))

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

#: Ops that can raise at runtime (division, memory faults).  A block
#: containing one carries a progress counter so a mid-block fault can
#: emit exactly the records that retired before it.
_FAULTING_ALU = frozenset(("divq", "remq"))

_ZERO = 31
_SP = 30


class SuperblockTemplate:
    """One compiled straight-line region.

    ``replay`` executes the block body against live machine state and
    emits one column slice per column; the caller advances
    ``pc_index`` to :attr:`end_index` (the terminator, handled by the
    step-decode interpreter) and ``count`` by :attr:`length`.
    """

    __slots__ = (
        "start_index",
        "end_index",
        "length",
        "mem_positions",
        "tracks_sp",
        "can_fault",
        "progress",
        "_fn",
        "_static",
        "_addr_zero",
    )

    def __init__(self, start_index, end_index, fn, static_blobs,
                 mem_positions, tracks_sp, can_fault):
        self.start_index = start_index
        self.end_index = end_index
        self.length = end_index - start_index
        self._fn = fn
        #: (pc, opcode, flags, size, base, dst, nsrc, src0, src1,
        #:  disp, spimm, next_pc) byte blobs, one slice per column.
        self._static = static_blobs
        self.mem_positions = mem_positions
        self.tracks_sp = tracks_sp
        self.can_fault = can_fault
        #: Shared progress cell: ops fully retired by the current call.
        self.progress = [0]
        self._addr_zero = bytes(8 * self.length)

    # ---------------------------------------------------------- replay
    def replay(self, registers, words, mem_load, mem_load_signed,
               mem_store, output_append, columns: ColumnarTrace,
               emitters):
        """Execute the block once and emit its column slices.

        ``words`` is the machine's backing word dict (aligned accesses
        are inlined against it; the ``Memory`` methods are the fault
        fallback).  ``emitters`` is the caller's prebound 12-tuple of
        batch column appenders (``columns.pc.frombytes`` ...
        ``next_pc.frombytes``, bound once per ``Machine.run`` call)
        for the static columns.  On a fault mid-block, emits the
        columns of the ops that retired before the faulting one and
        re-raises — registers and memory are left exactly as
        step-decode would leave them.
        """
        if self.tracks_sp:
            sps: Optional[List[int]] = []
            sp_append = sps.append
        else:
            sps = None
            sp_append = None
        if self.can_fault:
            addrs: List[int] = []
            progress = self.progress
            progress[0] = 0
            try:
                self._fn(
                    registers, words, mem_load, mem_load_signed,
                    mem_store, output_append, addrs.append, sp_append,
                    progress,
                )
            except MemoryError_:
                # The faulting op is the first memory op whose address
                # was never collected; every op before it retired.
                self._emit_partial(
                    columns, registers, addrs, sps,
                    self.mem_positions[len(addrs)], emitters,
                )
                raise
            except Exception:
                # Division fault: the body updates the progress cell
                # immediately before each divq/remq.
                self._emit_partial(
                    columns, registers, addrs, sps, progress[0], emitters
                )
                raise
        else:
            # Fault-free blocks have no loads/stores: no effective
            # addresses to collect, no progress to track.
            addrs = ()
            self._fn(
                registers, None, None, None, None,
                output_append, None, sp_append, None,
            )

        (pc_b, op_b, fl_b, sz_b, ba_b, ds_b, ns_b, s0_b, s1_b,
         di_b, si_b, nx_b) = self._static
        (e_pc, e_op, e_fl, e_sz, e_ba, e_ds, e_ns, e_s0, e_s1,
         e_di, e_si, e_nx) = emitters
        e_pc(pc_b)
        e_op(op_b)
        e_fl(fl_b)
        e_sz(sz_b)
        e_ba(ba_b)
        e_ds(ds_b)
        e_ns(ns_b)
        e_s0(s0_b)
        e_s1(s1_b)
        e_di(di_b)
        e_si(si_b)
        e_nx(nx_b)

        # addr: zeros except at the block's memory ops, scattered from
        # the addresses the body collected (in op order).
        col_addr = columns.addr
        base_len = len(col_addr)
        col_addr.frombytes(self._addr_zero)
        for position, addr in zip(self.mem_positions, addrs):
            col_addr[base_len + position] = addr

        # sp: constant across a block with no $sp write (one repeated
        # fill), else the per-op values the body collected.
        if sps is None:
            columns.sp.frombytes(
                registers[_SP].to_bytes(8, "little") * self.length
            )
        else:
            columns.sp.extend(sps)

    def _emit_partial(self, columns, registers, addrs, sps, done,
                      emitters):
        """Append the first ``done`` ops' column values (fault path)."""
        if done == 0:
            return
        (pc_b, op_b, fl_b, sz_b, ba_b, ds_b, ns_b, s0_b, s1_b,
         di_b, si_b, nx_b) = self._static
        (e_pc, e_op, e_fl, e_sz, e_ba, e_ds, e_ns, e_s0, e_s1,
         e_di, e_si, e_nx) = emitters
        e_pc(pc_b[: 8 * done])
        e_op(op_b[:done])
        e_fl(fl_b[:done])
        e_sz(sz_b[:done])
        e_ba(ba_b[:done])
        e_ds(ds_b[:done])
        e_ns(ns_b[:done])
        e_s0(s0_b[:done])
        e_s1(s1_b[:done])
        e_di(di_b[: 8 * done])
        e_si(si_b[: 8 * done])
        e_nx(nx_b[: 8 * done])
        col_addr = columns.addr
        base_len = len(col_addr)
        col_addr.frombytes(self._addr_zero[: 8 * done])
        for position, addr in zip(self.mem_positions, addrs):
            if position >= done:
                break
            col_addr[base_len + position] = addr
        if sps is None:
            columns.sp.frombytes(
                registers[_SP].to_bytes(8, "little") * done
            )
        else:
            columns.sp.extend(sps[:done])


def build_template(decoded, emit_cols, start_index,
                   text_base) -> Optional[SuperblockTemplate]:
    """Compile the straight-line region at ``start_index``, or None.

    ``decoded``/``emit_cols`` are ``Machine``'s per-instruction
    execution tuples and static column tuples (the ALU handler rides
    in the decoded tuple itself).  Returns None when the region is
    shorter than :data:`MIN_BLOCK_LENGTH` (the caller caches the None
    so the lookup never repeats the walk).
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
    length = index - start_index
    if length < MIN_BLOCK_LENGTH:
        return None

    tracks_sp = any(
        op[0] in (_K_ALU, _K_LOAD, _K_LDA) and op[2] == _SP for op in ops
    )
    can_fault = False
    mem_positions = []

    # ---------------------------------------------------------- body
    # R=registers W=memory word dict ml/mls/ms=Memory methods (fault
    # fallback) oa=output.append A=addrs.append S=sps.append (None for
    # blocks with no $sp write) P=progress cell.  Aligned memory
    # accesses are inlined against W with the exact semantics of
    # Memory.load/load_signed/store; the method call survives only on
    # the fault path (misalignment), so error type and message are the
    # step path's.  Before each divq/remq the body records how many
    # ops retired so far (``P[0] = position``); memory-fault progress
    # is recovered from ``len(addrs)`` instead (no per-op bookkeeping).
    lines = ["def _replay(R, W, ml, mls, ms, oa, A, S, P):"]
    body_start = len(lines)
    namespace = {"M": _MASK64}
    for position, op in enumerate(ops):
        kind, fn, rd, ra, rb, imm, rimm, _target, mem_size = op
        if kind == _K_ALU:
            if rimm is not None:
                right = repr(rimm)
            else:
                right = f"R[{rb}]"
            name = getattr(fn, "__name__", "")[5:]  # _alu_<name>
            inline = _INLINE_ALU.get(name)
            if name in _FAULTING_ALU:
                can_fault = True
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
            can_fault = True
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
            can_fault = True
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
        # _K_NOP: retires a record but computes nothing.
        if tracks_sp:
            lines.append(f"    S(R[{_SP}])")
    if mem_positions:
        lines.insert(body_start, "    WG = W.get")
    if len(lines) == 1:
        lines.append("    pass")
    exec(compile("\n".join(lines), "<superblock>", "exec"), namespace)
    fn = namespace["_replay"]

    # ------------------------------------------------- static columns
    pcs = array("Q")
    opcodes = bytearray()
    flags = bytearray()
    sizes = bytearray()
    bases = array("b")
    dsts = array("b")
    nsrcs = bytearray()
    src0s = bytearray()
    src1s = bytearray()
    disps = array("q")
    spimms = array("q")
    next_pcs = array("Q")
    for offset in range(length):
        (pc, opnum, flag, size, base, dst, nsrc, src0, src1, disp,
         spimm) = emit_cols[start_index + offset]
        pcs.append(pc)
        opcodes.append(opnum)
        flags.append(flag)
        sizes.append(size)
        bases.append(base)
        dsts.append(dst)
        nsrcs.append(nsrc)
        src0s.append(src0)
        src1s.append(src1)
        disps.append(disp)
        spimms.append(spimm)
        next_pcs.append(text_base + 4 * (start_index + offset + 1))
    static_blobs = (
        pcs.tobytes(),
        bytes(opcodes),
        bytes(flags),
        bytes(sizes),
        bases.tobytes(),
        dsts.tobytes(),
        bytes(nsrcs),
        bytes(src0s),
        bytes(src1s),
        disps.tobytes(),
        spimms.tobytes(),
        next_pcs.tobytes(),
    )
    return SuperblockTemplate(
        start_index,
        index,
        fn,
        static_blobs,
        mem_positions,
        tracks_sp,
        can_fault,
    )


def _signed(value: int) -> int:
    return value - (1 << 64) if value & (1 << 63) else value


__all__ = [
    "MIN_BLOCK_LENGTH",
    "SuperblockTemplate",
    "build_template",
    "set_superblock_enabled",
    "superblock_enabled",
]
