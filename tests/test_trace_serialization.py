"""Tests for binary trace serialization."""

import struct
import tracemalloc
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.encoding import OPCODE_NAMES
from repro.trace.columnar import ColumnarTrace
from repro.trace.serialization import (
    MAGIC,
    TraceFormatError,
    load_trace,
    save_trace,
)
from repro.uarch.config import table2_config
from repro.uarch.pipeline import simulate
from repro.workloads import workload


#: Header bytes (magic, CRC32, row count) and bytes per row: 8 each
#: for pc, spimm, addr and sp, 1 each for the other eight columns.
HEADER_BYTES = 6 + 4 + 8
ROW_BYTES = 40


class TestRoundTrip:
    def test_records_identical(self, gzip_trace, tmp_path):
        path = str(tmp_path / "gzip.svft")
        count = save_trace(gzip_trace, path)
        assert count == len(gzip_trace)
        restored = load_trace(path)
        assert len(restored) == len(gzip_trace)
        for name in ColumnarTrace.__slots__:
            assert getattr(restored, name) == getattr(gzip_trace, name), (
                name
            )

    def test_file_holds_twelve_columns(self, tmp_path):
        path = tmp_path / "gzip.svft"
        for rows in (0, 1, 777):
            save_trace(workload("gzip").trace(max_instructions=rows),
                       str(path))
            assert path.stat().st_size == HEADER_BYTES + ROW_BYTES * rows
        assert path.read_bytes()[:6] == MAGIC == b"SVFT\x05\x00"

    def test_timing_simulation_identical(self, crafty_trace, tmp_path):
        """A reloaded trace must time exactly like the original."""
        path = str(tmp_path / "crafty.svft")
        save_trace(crafty_trace, path)
        restored = load_trace(path)
        config = table2_config(16).with_svf(mode="svf", ports=2)
        original_stats = simulate(crafty_trace, config)
        restored_stats = simulate(restored, config)
        assert restored_stats.cycles == original_stats.cycles
        assert restored_stats.svf_fast_loads == original_stats.svf_fast_loads


class TestErrors:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.svft"
        path.write_bytes(b"NOTATRACE")
        with pytest.raises(TraceFormatError, match="header"):
            load_trace(str(path))

    def test_truncated_file_rejected(self, gzip_trace, tmp_path):
        path = tmp_path / "cut.svft"
        save_trace(gzip_trace[:10], str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])
        with pytest.raises(TraceFormatError, match="checksum mismatch"):
            load_trace(str(path))

    def test_empty_trace_round_trips(self, tmp_path):
        path = str(tmp_path / "empty.svft")
        assert save_trace(ColumnarTrace(), path) == 0
        assert load_trace(path) == ColumnarTrace()

    def test_huge_count_fails_before_allocating(self, tmp_path):
        # A header whose CRC is valid but whose count promises 2**40
        # records: the length check must fail before any column of
        # that size is allocated.
        count = struct.pack("<Q", 2**40)
        path = tmp_path / "huge.svft"
        path.write_bytes(
            MAGIC + struct.pack("<I", zlib.crc32(count)) + count
        )
        tracemalloc.start()
        try:
            with pytest.raises(TraceFormatError):
                load_trace(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_invalid_opcode_byte_rejected(self, tmp_path):
        trace = workload("gzip").trace(max_instructions=50)
        bad = next(n for n in range(256) if n not in OPCODE_NAMES)
        trace.opcode[20] = bad
        path = str(tmp_path / "bad-opcode.svft")
        save_trace(trace, path)  # a valid CRC over the bad byte
        with pytest.raises(TraceFormatError, match=rf"bad opcode {bad} "):
            load_trace(path)


@pytest.fixture(scope="module")
def small_saved(tmp_path_factory):
    """(trace, file bytes, temporary path) for the damage property."""
    trace = workload("gzip").trace(max_instructions=40)
    path = tmp_path_factory.mktemp("damage") / "trace.svft"
    save_trace(trace, str(path))
    return trace, path.read_bytes(), path


_DAMAGE = st.one_of(
    st.tuples(st.just("truncate"), st.integers(min_value=0)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=64)),
    st.tuples(st.just("overwrite"), st.integers(min_value=0),
              st.integers(0, 255)),
)


def _damaged(blob: bytes, damage) -> bytes:
    kind = damage[0]
    if kind == "truncate":
        return blob[: damage[1] % len(blob)]
    if kind == "append":
        return blob + damage[1]
    _, offset, value = damage
    offset %= len(blob)
    return blob[:offset] + bytes([value]) + blob[offset + 1:]


@settings(max_examples=300, deadline=None)
@given(damage=_DAMAGE)
def test_damaged_file_loads_equal_or_raises_format_error(small_saved,
                                                         damage):
    # Any damage either leaves the trace intact (an overwrite with the
    # same byte) or is a TraceFormatError -- never another exception.
    trace, blob, path = small_saved
    path.write_bytes(_damaged(blob, damage))
    try:
        loaded = load_trace(str(path))
    except TraceFormatError:
        return
    assert loaded == trace
