"""Columnar (struct-of-arrays) dynamic-trace IR.

A full run shuttles 10^5-10^6 per-instruction records through the
emulator, the timing model and the traffic model.  Boxing each one as a
:class:`~repro.trace.records.TraceRecord` costs an object allocation
plus ~18 attribute stores on the way in and as many attribute loads on
the way out.  :class:`ColumnarTrace` stores the same information as
fourteen flat, append-only columns (``array``/``bytearray``), so:

* the emulator fills the columns in bulk, once per 65,536 retired
  instructions: it gathers the eleven static columns from per-program
  tables and fills ``addr``, ``sp``, ``next_pc`` and the taken bit
  from the few values execution decides (it emits nothing else: a
  ``ColumnarTrace`` is ``Machine.run``'s only trace sink);
* the timing, traffic and analysis models read fields by column index
  without materializing records;
* serialization writes each column as a single ``tobytes`` blob.

Column layout (one entry per retired instruction)::

    pc       array('Q')   instruction address
    opcode   bytearray    opcode number (repro.isa.encoding.OPCODE_NUMBERS)
    flags    bytearray    packed booleans, see FLAG_* below
    size     bytearray    memory access size in bytes (0 for non-memory)
    base     array('b')   base register of a memory op, -1 = none
    dst      array('b')   destination register, -1 = none
    nsrc     bytearray    number of source registers (0..2)
    src0     bytearray    first source register (0 when unused)
    src1     bytearray    second source register (0 when unused)
    disp     array('q')   displacement / full ALU immediate
    spimm    array('q')   $sp-adjust immediate (lda $sp, imm($sp)), else 0
    addr     array('Q')   effective address of a memory op (0 otherwise)
    next_pc  array('Q')   address of the next retired instruction
    sp       array('Q')   $sp value at retirement

The record ``index`` is implicit: it is the position in the columns.
:meth:`record_at` (and ``__iter__``/``__getitem__``) are read views
that materialize :class:`TraceRecord` objects on demand, for tests and
one-off inspection; no production consumer walks records.
:meth:`from_records` packs a record sequence, the input
``repro.api.simulate`` documents besides a ``ColumnarTrace``.

:meth:`ColumnarTrace.as_arrays` exposes the columns as zero-copy
numpy ``ndarray`` views.  The Figure 1-3 analyses, the traffic model
and the certifier's trace validation run vectorized over them; each
analysis's record-at-a-time ``append`` is the reference
``tests/test_analysis_columnar.py`` holds those walks to.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator

import numpy as np

from repro.isa.encoding import OPCODE_NAMES, OPCODE_NUMBERS
from repro.isa.instructions import OPCODES
from repro.trace.records import TraceRecord


# perfbench's import.  perfbench/rep.py imports this function on every
# repetition and calls it for its --no-numpy flag, which once selected
# a pure-python column walk.  The numpy walk is now the only batched
# path, so the call changes nothing.  Delete this function together
# with that flag.
def set_numpy_enabled(enabled: bool) -> bool:
    return True


#: Packed ``flags`` column bits (also the on-disk encoding).
FLAG_LOAD = 1
FLAG_STORE = 2
FLAG_BRANCH = 4
FLAG_CONDITIONAL = 8
FLAG_TAKEN = 16
FLAG_SP_UPDATE = 32

#: op_class per opcode number, indexed by OPCODE_NUMBERS (index 0 unused).
OPCODE_CLASSES = [None] + [OPCODES[name].op_class for name in OPCODES]

#: (column name, ``array`` typecode or None for a ``bytearray``) in
#: column and file order; every other column table derives from it.
COLUMN_LAYOUT = (
    ("pc", "Q"),
    ("opcode", None),
    ("flags", None),
    ("size", None),
    ("base", "b"),
    ("dst", "b"),
    ("nsrc", None),
    ("src0", None),
    ("src1", None),
    ("disp", "q"),
    ("spimm", "q"),
    ("addr", "Q"),
    ("next_pc", "Q"),
    ("sp", "Q"),
)

_COLUMN_NAMES = tuple(name for name, _typecode in COLUMN_LAYOUT)

#: numpy dtype per column: ``uint8`` for a bytearray, else the
#: typecode's own (``uint64`` addresses, ``int64`` immediates, ``int8``
#: register numbers).
COLUMN_DTYPES = {
    name: np.dtype("uint8" if typecode is None else typecode)
    for name, typecode in COLUMN_LAYOUT
}


class ColumnArrays:
    """Zero-copy ndarray views over one :class:`ColumnarTrace`.

    Same attribute names as the trace's columns, with the dtypes of
    :data:`COLUMN_DTYPES`.  The views alias the trace's buffers
    directly, so they are only valid until the next ``append`` to the
    trace.
    """

    __slots__ = _COLUMN_NAMES


_FIELDS = (
    "index",
    "pc",
    "op",
    "op_class",
    "srcs",
    "dst",
    "is_load",
    "is_store",
    "addr",
    "size",
    "base_reg",
    "displacement",
    "is_branch",
    "is_conditional",
    "taken",
    "next_pc",
    "sp_value",
    "sp_update",
    "sp_update_immediate",
)


class ColumnarTrace:
    """A dynamic instruction trace stored column-wise.

    The emulator and every consumer touch the columns directly.
    ``append`` packs one record (the :meth:`from_records` packer) and
    the sequence protocol (``len``/``iter``/indexing) gives record
    views.
    """

    __slots__ = _COLUMN_NAMES

    def __init__(self):
        for name, typecode in COLUMN_LAYOUT:
            setattr(
                self, name,
                bytearray() if typecode is None else array(typecode),
            )

    # ------------------------------------------------------------ pack
    def append(self, record: TraceRecord) -> None:
        """Pack one :class:`TraceRecord` onto the end of the columns."""
        flags = 0
        if record.is_load:
            flags |= FLAG_LOAD
        if record.is_store:
            flags |= FLAG_STORE
        if record.is_branch:
            flags |= FLAG_BRANCH
        if record.is_conditional:
            flags |= FLAG_CONDITIONAL
        if record.taken:
            flags |= FLAG_TAKEN
        if record.sp_update:
            flags |= FLAG_SP_UPDATE
        srcs = record.srcs
        nsrc = len(srcs)
        self.pc.append(record.pc)
        self.opcode.append(OPCODE_NUMBERS[record.op])
        self.flags.append(flags)
        self.size.append(record.size)
        self.base.append(-1 if record.base_reg is None else record.base_reg)
        self.dst.append(-1 if record.dst is None else record.dst)
        self.nsrc.append(nsrc)
        self.src0.append(srcs[0] if nsrc > 0 else 0)
        self.src1.append(srcs[1] if nsrc > 1 else 0)
        self.disp.append(record.displacement)
        self.spimm.append(record.sp_update_immediate)
        self.addr.append(record.addr)
        self.next_pc.append(record.next_pc)
        self.sp.append(record.sp_value)

    @classmethod
    def from_records(cls, records: Iterable) -> "ColumnarTrace":
        """Pack an iterable of :class:`TraceRecord` into columns."""
        if isinstance(records, cls):
            return records
        trace = cls()
        append = trace.append
        for record in records:
            append(record)
        return trace

    # ----------------------------------------------------- numpy views
    def as_arrays(self) -> ColumnArrays:
        """Zero-copy ndarray views of the columns.

        The views share memory with the columns (``np.frombuffer``
        over the buffer protocol), so they are invalidated by the next
        ``append``.
        """
        views = ColumnArrays()
        for name in ColumnarTrace.__slots__:
            views_array = np.frombuffer(
                getattr(self, name), dtype=COLUMN_DTYPES[name]
            )
            setattr(views, name, views_array)
        return views

    # ------------------------------------------------------------ view
    def record_at(self, index: int) -> TraceRecord:
        """Materialize the record at ``index`` (no bounds wrapping)."""
        flags = self.flags[index]
        nsrc = self.nsrc[index]
        if nsrc == 0:
            srcs = ()
        elif nsrc == 1:
            srcs = (self.src0[index],)
        else:
            srcs = (self.src0[index], self.src1[index])
        opcode = self.opcode[index]
        base = self.base[index]
        dst = self.dst[index]
        return TraceRecord(
            index=index,
            pc=self.pc[index],
            op=OPCODE_NAMES[opcode],
            op_class=OPCODE_CLASSES[opcode],
            srcs=srcs,
            dst=None if dst < 0 else dst,
            is_load=bool(flags & FLAG_LOAD),
            is_store=bool(flags & FLAG_STORE),
            addr=self.addr[index],
            size=self.size[index],
            base_reg=None if base < 0 else base,
            displacement=self.disp[index],
            is_branch=bool(flags & FLAG_BRANCH),
            is_conditional=bool(flags & FLAG_CONDITIONAL),
            taken=bool(flags & FLAG_TAKEN),
            next_pc=self.next_pc[index],
            sp_value=self.sp[index],
            sp_update=bool(flags & FLAG_SP_UPDATE),
            sp_update_immediate=self.spimm[index],
        )

    def records(self) -> Iterator[TraceRecord]:
        """Compatibility view: yield one :class:`TraceRecord` per entry."""
        record_at = self.record_at
        for index in range(len(self.pc)):
            yield record_at(index)

    def __len__(self) -> int:
        return len(self.pc)

    def __iter__(self) -> Iterator[TraceRecord]:
        return self.records()

    def __getitem__(self, index):
        if isinstance(index, slice):
            sliced = ColumnarTrace()
            for name in ColumnarTrace.__slots__:
                setattr(sliced, name, getattr(self, name)[index])
            return sliced
        if index < 0:
            index += len(self.pc)
        if not 0 <= index < len(self.pc):
            raise IndexError("trace index out of range")
        return self.record_at(index)

    # ------------------------------------------------------ comparison
    def _key(self, index: int) -> tuple:
        record = self.record_at(index)
        return tuple(getattr(record, name) for name in _FIELDS)

    def __eq__(self, other) -> bool:
        if isinstance(other, ColumnarTrace):
            return all(
                getattr(self, name) == getattr(other, name)
                for name in ColumnarTrace.__slots__
            )
        if isinstance(other, (list, tuple)):
            if len(other) != len(self.pc) or not all(
                isinstance(item, TraceRecord) for item in other
            ):
                return NotImplemented if len(other) else len(self.pc) == 0
            return all(
                self._key(i)
                == tuple(getattr(other[i], name) for name in _FIELDS)
                for i in range(len(self.pc))
            )
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ColumnarTrace {len(self.pc)} records>"


def record_fields(record: TraceRecord) -> tuple:
    """All fields of a record as a comparable tuple (test helper)."""
    return tuple(getattr(record, name) for name in _FIELDS)
