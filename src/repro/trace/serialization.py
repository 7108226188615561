"""Binary trace serialization (columnar blob format).

Traces are expensive to produce (functional emulation) and cheap to
replay (the timing model), so persisting them pays off when sweeping
many machine configurations — the same split SimpleScalar users make
with EIO traces.  Since the in-memory representation is already
columnar (:class:`~repro.trace.columnar.ColumnarTrace`), the file is
just the columns back to back, written in one shot from a finished
trace (record a run into a ``ColumnarTrace``, then :func:`save_trace`
it)::

    magic   6 bytes   b"SVFT\\x04\\x00"
    crc32   <I        zlib.crc32 of everything after this field
    count   <Q        number of records
    pc      count * 8 bytes, little-endian uint64
    opcode  count bytes (repro.isa.encoding.OPCODE_NUMBERS)
    flags   count bytes (FLAG_* bits from repro.trace.columnar)
    size    count bytes
    base    count bytes, int8 (-1 = none)
    dst     count bytes, int8 (-1 = none)
    nsrc    count bytes
    src0    count bytes
    src1    count bytes
    disp    count * 8 bytes, little-endian int64
    spimm   count * 8 bytes, little-endian int64
    addr    count * 8 bytes, little-endian uint64
    next_pc count * 8 bytes, little-endian uint64
    sp      count * 8 bytes, little-endian uint64

One ``tobytes`` per column on save and one ``readinto`` per column on
load replace one ``struct`` call per record, so saving/loading is
dominated by raw I/O.  The magic header guards against version skew:
files written by the old formats (``SVFT\\x02`` records, ``SVFT\\x03``
checksum-less columns) are rejected, not misread.  The CRC covers the
count and every column, so a bit-flip anywhere in a cached trace is a
:class:`TraceFormatError` on load — never a silently wrong simulation
input (the chaos harness injects exactly that fault to prove it).
"""

from __future__ import annotations

import os
import struct
import sys
import zlib
from array import array
from typing import BinaryIO, Iterable

from repro.isa.encoding import OPCODE_NAMES
from repro.trace.columnar import COLUMN_LAYOUT, ColumnarTrace

MAGIC = b"SVFT\x04\x00"

_COUNT = struct.Struct("<Q")
_CRC = struct.Struct("<I")

_BIG_ENDIAN = sys.byteorder == "big"

#: Bytes one record takes across all columns.
_BYTES_PER_RECORD = sum(
    1 if typecode is None else array(typecode).itemsize
    for _, typecode in COLUMN_LAYOUT
)

#: Every valid opcode byte; ``translate`` deletes these from a column,
#: so whatever is left is invalid.
_OPCODE_BYTES = bytes(sorted(OPCODE_NAMES))


class TraceFormatError(ValueError):
    """Raised when a file is not a valid serialized trace."""


def _column_to_bytes(column) -> bytes:
    if isinstance(column, bytearray):
        return bytes(column)
    if _BIG_ENDIAN:  # pragma: no cover - little-endian hosts only in CI
        swapped = array(column.typecode, column)
        swapped.byteswap()
        return swapped.tobytes()
    return column.tobytes()


def write_trace(stream: BinaryIO, trace: Iterable) -> int:
    """Write a trace to an open binary stream; returns the record count.

    Accepts a :class:`ColumnarTrace` (written as-is) or any iterable
    of :class:`TraceRecord` (packed first).  Used by callers that
    manage the file themselves (e.g. the trace cache's atomic
    temp-file-then-rename writes).
    """
    trace = ColumnarTrace.from_records(trace)
    count = len(trace)
    blobs = [_COUNT.pack(count)]
    blobs += [
        _column_to_bytes(getattr(trace, name)) for name, _ in COLUMN_LAYOUT
    ]
    crc = 0
    for blob in blobs:
        crc = zlib.crc32(blob, crc)
    stream.write(MAGIC)
    stream.write(_CRC.pack(crc))
    for blob in blobs:
        stream.write(blob)
    return count


def save_trace(trace: Iterable, path: str) -> int:
    """Write a trace to ``path``; returns the record count.

    Accepts a :class:`ColumnarTrace` (written as-is) or any iterable
    of :class:`TraceRecord` (packed first).
    """
    with open(path, "wb") as stream:
        return write_trace(stream, trace)


def load_trace(path: str) -> ColumnarTrace:
    """Read a trace written by :func:`save_trace` / :func:`write_trace`.

    Each column is read straight into its array, so a load never holds
    a second copy of the file.  The file length is checked against the
    header's record count before any column is allocated, and the CRC
    before the trace is returned.
    """
    header_size = len(MAGIC) + _CRC.size + _COUNT.size
    with open(path, "rb") as stream:
        header = stream.read(header_size)
        if header[: len(MAGIC)] != MAGIC or len(header) < header_size:
            raise TraceFormatError(f"bad trace header in {path!r}")
        (crc,) = _CRC.unpack_from(header, len(MAGIC))
        (count,) = _COUNT.unpack_from(header, len(MAGIC) + _CRC.size)
        size = os.fstat(stream.fileno()).st_size
        if size != header_size + count * _BYTES_PER_RECORD:
            raise TraceFormatError(f"checksum mismatch in {path!r}")
        running = zlib.crc32(header[len(MAGIC) + _CRC.size :])
        trace = ColumnarTrace()
        for name, typecode in COLUMN_LAYOUT:
            if typecode is None:
                column = bytearray(count)
                width = count
            else:
                column = array(typecode, (0,)) * count
                width = count * column.itemsize
            if stream.readinto(column) != width:
                raise TraceFormatError(f"checksum mismatch in {path!r}")
            running = zlib.crc32(column, running)
            if _BIG_ENDIAN and typecode is not None:  # pragma: no cover
                column.byteswap()
            setattr(trace, name, column)
    if running != crc:
        raise TraceFormatError(f"checksum mismatch in {path!r}")
    invalid = trace.opcode.translate(None, _OPCODE_BYTES)
    if invalid:
        raise TraceFormatError(
            f"bad opcode {invalid[0]} in trace file {path!r}"
        )
    return trace
