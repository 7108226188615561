"""The record view of a trace, for tests.

A :class:`TraceRecord` is one row of a
:class:`~repro.trace.columnar.ColumnarTrace` as an object.  No run
builds one: the emulator emits columns and every consumer reads them.
Tests use records to hand-build rows (:func:`pack`), to read rows by
field (:func:`record_at`, :func:`records`), and as the
row-at-a-time reference the column walks are held to (:func:`feed`,
which updates an analysis or traffic model one record at a time).
"""

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.core.traffic import TrafficSimulator
from repro.isa.encoding import OPCODE_NAMES, OPCODE_NUMBERS
from repro.isa.instructions import OPCODES, OpClass
from repro.trace.analysis import (
    AccessDistribution,
    OffsetLocality,
    StackDepthProfile,
)
from repro.trace.columnar import (
    ColumnarTrace,
    FLAG_BRANCH,
    FLAG_CONDITIONAL,
    FLAG_LOAD,
    FLAG_SP_UPDATE,
    FLAG_STORE,
    FLAG_TAKEN,
)
from repro.trace.first_touch import FirstTouchProfile
from repro.trace.regions import classify_access, is_stack_address


@dataclass
class TraceRecord:
    """One dynamically executed instruction: a row, field by field."""

    index: int
    pc: int
    op: str
    op_class: OpClass
    srcs: Tuple[int, ...]
    dst: Optional[int]
    is_load: bool = False
    is_store: bool = False
    addr: int = 0
    size: int = 0
    base_reg: Optional[int] = None
    is_branch: bool = False
    is_conditional: bool = False
    taken: bool = False
    sp_value: int = 0
    sp_update: bool = False
    sp_update_immediate: int = 0

    @property
    def is_mem(self) -> bool:
        return self.is_load or self.is_store


# ------------------------------------------------------------------ pack
def pack(records: Iterable[TraceRecord]) -> ColumnarTrace:
    """The trace whose rows are ``records``, in order."""
    trace = ColumnarTrace()
    for record in records:
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
        trace.pc.append(record.pc)
        trace.opcode.append(OPCODE_NUMBERS[record.op])
        trace.flags.append(flags)
        trace.size.append(record.size)
        trace.base.append(-1 if record.base_reg is None else record.base_reg)
        trace.dst.append(-1 if record.dst is None else record.dst)
        trace.nsrc.append(nsrc)
        trace.src0.append(srcs[0] if nsrc > 0 else 0)
        trace.src1.append(srcs[1] if nsrc > 1 else 0)
        trace.spimm.append(record.sp_update_immediate)
        trace.addr.append(record.addr)
        trace.sp.append(record.sp_value)
    return trace


# ------------------------------------------------------------------ read
def record_at(trace: ColumnarTrace, index: int) -> TraceRecord:
    """The row at ``index`` (negative counts from the end)."""
    if index < 0:
        index += len(trace)
    if not 0 <= index < len(trace):
        raise IndexError("trace index out of range")
    flags = trace.flags[index]
    nsrc = trace.nsrc[index]
    srcs = (trace.src0[index], trace.src1[index])[:nsrc]
    op = OPCODE_NAMES[trace.opcode[index]]
    base = trace.base[index]
    dst = trace.dst[index]
    return TraceRecord(
        index=index,
        pc=trace.pc[index],
        op=op,
        op_class=OPCODES[op].op_class,
        srcs=srcs,
        dst=None if dst < 0 else dst,
        is_load=bool(flags & FLAG_LOAD),
        is_store=bool(flags & FLAG_STORE),
        addr=trace.addr[index],
        size=trace.size[index],
        base_reg=None if base < 0 else base,
        is_branch=bool(flags & FLAG_BRANCH),
        is_conditional=bool(flags & FLAG_CONDITIONAL),
        taken=bool(flags & FLAG_TAKEN),
        sp_value=trace.sp[index],
        sp_update=bool(flags & FLAG_SP_UPDATE),
        sp_update_immediate=trace.spimm[index],
    )


def records(trace: ColumnarTrace) -> Iterator[TraceRecord]:
    """Every row of ``trace`` as a record, in order."""
    for index in range(len(trace)):
        yield record_at(trace, index)


def next_pcs(trace: ColumnarTrace, stop_pc: int) -> List[int]:
    """Per row, the address of the next retired instruction.

    That is the next row's ``pc``; after the last row it is
    ``stop_pc``, the pc the machine stopped at.
    """
    return list(trace.pc[1:]) + [stop_pc] if len(trace) else []


# ---------------------------------------------------- reference feeds
def _feed_distribution(analysis: AccessDistribution, record) -> None:
    analysis.total_instructions += 1
    if not record.is_mem:
        return
    analysis.memory_references += 1
    analysis.counts[classify_access(record.addr, record.base_reg)] += 1


def _feed_depth(profile: StackDepthProfile, record) -> None:
    if not record.sp_update:
        return
    depth = (profile.stack_base - record.sp_value) // 8
    profile.samples.append((record.index, depth))
    if depth > profile.max_depth:
        profile.max_depth = depth


def _feed_locality(locality: OffsetLocality, record) -> None:
    if not record.is_mem or not is_stack_address(record.addr):
        return
    offset = record.addr - record.sp_value
    if offset < 0:
        locality.beyond_tos += 1
        return
    locality.total += 1
    locality.sum_offsets += offset
    locality.histogram[offset] = locality.histogram.get(offset, 0) + 1


def _feed_first_touch(profile: FirstTouchProfile, record) -> None:
    if profile._previous_sp == 0:
        profile._previous_sp = record.sp_value
    if record.is_mem:
        word = record.addr & ~7
        if is_stack_address(record.addr):
            if word in profile._pending:
                profile._pending.discard(word)
                if record.is_store:
                    profile.stack_first_stores += 1
                else:
                    profile.stack_first_loads += 1
        elif word not in profile._seen_other:
            profile._seen_other[word] = True
            if record.is_store:
                profile.other_first_stores += 1
            else:
                profile.other_first_loads += 1
    if record.sp_update:
        new_sp = record.sp_value
        if new_sp < profile._previous_sp:
            exposed = min(
                (profile._previous_sp - new_sp) // 8,
                profile.allocation_cap,
            )
            for index in range(exposed):
                profile._pending.add(new_sp + 8 * index)
        else:
            # Deallocation kills pending-but-untouched words.
            for word in [w for w in profile._pending if w < new_sp]:
                profile._pending.discard(word)
        profile._previous_sp = new_sp


def _feed_traffic(simulator: TrafficSimulator, record) -> None:
    if not simulator._sp_seen:
        simulator.svf.update_sp(record.sp_value)
        simulator._sp_seen = True
    simulator._instructions += 1
    if record.is_mem and is_stack_address(record.addr):
        simulator._stack_references += 1
        simulator.svf.access(record.addr, record.size, record.is_store)
        simulator.stack_cache.access(
            record.addr, record.size, record.is_store
        )
    if record.sp_update:
        simulator.svf.update_sp(record.sp_value)
    period = simulator.context_switch_period
    if period and simulator._instructions % period == 0:
        simulator._switches += 1
        simulator._svf_switch_bytes += simulator.svf.context_switch()
        simulator._stack_cache_switch_bytes += (
            simulator.stack_cache.context_switch()
        )


_FEEDS = {
    AccessDistribution: _feed_distribution,
    StackDepthProfile: _feed_depth,
    OffsetLocality: _feed_locality,
    FirstTouchProfile: _feed_first_touch,
    TrafficSimulator: _feed_traffic,
}


def feed(sink, record: TraceRecord) -> None:
    """Update ``sink`` by one record, the way its column walk must."""
    _FEEDS[type(sink)](sink, record)
