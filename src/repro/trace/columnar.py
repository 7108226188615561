"""Columnar (struct-of-arrays) dynamic-trace IR.

A full run shuttles 10^5-10^6 retired instructions through the
emulator, the timing model and the traffic model.  Boxing each one
as an object would cost an allocation plus ~17 attribute stores on
the way in and as many attribute loads on the way out.
:class:`ColumnarTrace` stores a trace as twelve flat, append-only
columns (``array``/``bytearray``), so:

* the emulator fills the columns in bulk, once per 65,536 retired
  instructions: it gathers the ten static columns from per-program
  tables and fills ``addr``, ``sp`` and the taken bit from the few
  values execution decides (a ``ColumnarTrace`` is ``Machine.run``'s
  only trace sink);
* the timing, traffic and analysis models read fields by column;
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
    spimm    array('q')   $sp-adjust immediate (lda $sp, imm($sp)), else 0
    addr     array('Q')   effective address of a memory op (0 otherwise)
    sp       array('Q')   $sp value at retirement

A row's position is its instruction's index in the run.  Nothing the
consumers read is left out: the address of the next retired
instruction is the next row's ``pc`` (for the last row, the machine's
pc after the run), and a memory op's displacement is the immediate of
the instruction at the row's ``pc``.

:meth:`ColumnarTrace.as_arrays` exposes the columns as zero-copy
numpy ``ndarray`` views.  The Figure 1-3 analyses, the traffic model
and the certifier's trace validation run vectorized over them.
"""

from __future__ import annotations

from array import array

import numpy as np


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
    ("spimm", "q"),
    ("addr", "Q"),
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
    directly, so they are only valid until the columns grow.
    """

    __slots__ = _COLUMN_NAMES


class ColumnarTrace:
    """A dynamic instruction trace stored column-wise.

    The emulator and every consumer touch the columns directly;
    ``len`` counts rows and a slice copies a row range.
    """

    __slots__ = _COLUMN_NAMES

    def __init__(self):
        for name, typecode in COLUMN_LAYOUT:
            setattr(
                self, name,
                bytearray() if typecode is None else array(typecode),
            )

    def as_arrays(self) -> ColumnArrays:
        """Zero-copy ndarray views of the columns.

        The views share memory with the columns (``np.frombuffer``
        over the buffer protocol), so they are invalidated when the
        columns grow.
        """
        views = ColumnArrays()
        for name in ColumnarTrace.__slots__:
            views_array = np.frombuffer(
                getattr(self, name), dtype=COLUMN_DTYPES[name]
            )
            setattr(views, name, views_array)
        return views

    def __len__(self) -> int:
        return len(self.pc)

    def __getitem__(self, index):
        """A copy of the rows in ``index``, which must be a slice."""
        if not isinstance(index, slice):
            raise TypeError(
                "ColumnarTrace indices must be slices, not "
                f"{type(index).__name__}"
            )
        sliced = ColumnarTrace()
        for name in ColumnarTrace.__slots__:
            setattr(sliced, name, getattr(self, name)[index])
        return sliced

    def __eq__(self, other) -> bool:
        if not isinstance(other, ColumnarTrace):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name)
            for name in ColumnarTrace.__slots__
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ColumnarTrace {len(self.pc)} rows>"
