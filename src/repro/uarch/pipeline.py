"""One-pass out-of-order timing model (modified-SimpleScalar analogue).

The model replays the dynamic instruction stream produced by the
functional emulator and computes, for every instruction, the cycle at
which it is fetched, dispatched, issued, completed and committed,
subject to:

* fetch bandwidth, IFQ occupancy and branch-redirect bubbles;
* a unified RUU window (dispatch stalls when the instruction
  ``ruu_size`` older has not committed) and an LSQ window for memory
  operations — the paper's Register Update Unit organization;
* issue width, integer ALU/multiplier pools and cache-port pools;
* the DL1/L2/memory hierarchy of Table 2, with 3-cycle store
  forwarding in the LSQ;
* in-order commit bandwidth.

The stack unit is pluggable (``config.svf.mode``):

``none``
    every reference uses a DL1 port.
``svf``
    ``$sp``-relative references inside the SVF window are *morphed*
    into register moves: the base-register (address calculation)
    dependence disappears, the access uses an SVF port with 1-cycle
    latency, and store→load communication happens through the rename
    map (``entry_ready``) instead of the 3-cycle LSQ poll.  Non-``$sp``
    stack references in range are re-routed at cache-like latency;
    gpr-store → sp-load collisions cost a pipeline squash (Section
    3.2) unless the ``no_squash`` code-generation option is set.
``ideal``
    Figure 5's limit study: every stack reference morphs, with
    unbounded capacity and ports.
``stack_cache``
    the decoupled stack cache: stack references use stack-cache ports
    and refill from the L2; every miss moves whole lines.

One dense-window walk (:func:`_walk`) implements the model.  It
reads the trace column-wise (:class:`ColumnarTrace`; other iterables
are packed on entry): :class:`_Columns` turns the columns the walk
reads per instruction into flat python lists once per trace, points
missing source registers at a sentinel slot that is always ready (a
missing destination writes a second, never-read slot), and folds the
FU latency and the memory test into one column.  Fetch has no stage
of its own: fetch and dispatch share ``decode_width``, and at equal
widths an in-order allocator applied to fetch and then to dispatch
yields the cycles of one application to ``max(redirect, IFQ head) +
frontend_depth``.  Issue, FU and port occupancy live in dense
:class:`~repro.uarch.resources.CycleWindow` lists indexed by cycle,
and the ALU window is left out when it cannot bind (every ALU op also
holds an issue slot, so ``int_alus >= issue_width`` never stalls);
dispatch and commit collapse to scalar (cycle, units free) pairs
because their floors never decrease; the IFQ/RUU/LSQ ring heads are
read from prefilled history lists; and memory completion is written
out route by route.
"""

from __future__ import annotations

import copy
from time import perf_counter
from typing import Iterable, List, Optional

from repro import profiling
from repro.core.stack_cache import StackCache
from repro.core.svf import StackValueFile
from repro.isa.encoding import OPCODE_NUMBERS
from repro.isa.instructions import OPCODES, OpClass
from repro.isa.registers import NUM_REGISTERS, SP
from repro.trace.columnar import ColumnarTrace
from repro.trace.regions import STACK_REGION_FLOOR
from repro.uarch.bpred import make_predictor
from repro.uarch.cache import build_hierarchy
from repro.uarch.config import MachineConfig
from repro.uarch.resources import CycleWindow, grow_windows
from repro.uarch.stats import SimStats

_DIV_OPS = ("divq", "remq")

#: Completion latency of non-memory ops by opcode number: 1 for the
#: integer ALUs, 3 or 20 for the multiplier.  ``_Columns`` writes 0
#: for memory ops, so the latency column doubles as the memory test.
_FU_LATENCY = [1] * (len(OPCODE_NUMBERS) + 1)
for _name, _num in OPCODE_NUMBERS.items():
    if OPCODES[_name].op_class is OpClass.IMULT:
        _FU_LATENCY[_num] = 20 if _name in _DIV_OPS else 3

_LDA = OPCODE_NUMBERS["lda"]

#: Integer route codes for memory references; ``_R_SVF`` is a stack
#: reference still to be bounds-checked against the SVF window.
_R_DL1 = 0
_R_FAST = 1
_R_REROUTE = 2
_R_SC = 3
_R_SVF = 4

#: Register-file slot that is never written: missing sources read it.
_READY = NUM_REGISTERS


def simulate(trace: Iterable, config: MachineConfig) -> SimStats:
    """Run the timing model over a trace; returns :class:`SimStats`."""
    if not isinstance(trace, ColumnarTrace):
        trace = ColumnarTrace.from_records(trace)
    profiler = profiling.active()
    profile_started = perf_counter() if profiler is not None else 0.0
    stats = _walk(config, _Columns(trace))
    if profiler is not None:
        profiler.note(
            "timing", perf_counter() - profile_started, len(trace.pc)
        )
    return stats


def simulate_batch(trace: Iterable, configs) -> List[SimStats]:
    """Evaluate many configs over one trace.

    Returns one :class:`SimStats` per config, in input order, each
    stat-identical to a :func:`simulate` call for that config
    (``tests/test_pipeline_batch.py`` is the differential gate).  The
    configs share one :class:`_Columns` precompute, built once instead
    of once per config, and each distinct config is then walked to the
    end in turn.  Duplicate configs (a common case: ablation grids
    share one baseline) are walked once and returned as independent
    copies.  A single config is a plain :func:`simulate` call and
    emits no batch counters.
    """
    configs = list(configs)
    if not isinstance(trace, ColumnarTrace):
        trace = ColumnarTrace.from_records(trace)
    if not configs:
        return []
    if len(configs) == 1:
        return [simulate(trace, configs[0])]

    # MachineConfig is frozen/hashable: dedup to one walk per distinct
    # config, insertion-ordered so walk order is deterministic.
    slots: dict = {}
    for config in configs:
        if config not in slots:
            slots[config] = len(slots)

    profiler = profiling.active()
    profile_started = perf_counter() if profiler is not None else 0.0
    columns = _Columns(trace)
    results = [_walk(config, columns) for config in slots]
    if profiler is not None:
        profiler.note(
            "timing", perf_counter() - profile_started,
            columns.n * len(results),
        )
        # Every config past the first reuses the shared precompute.
        profiler.count("batch_configs", len(configs))
        profiler.count("batch_walks_saved", len(configs) - 1)

    out: List[SimStats] = []
    claimed = set()
    for config in configs:
        slot = slots[config]
        stats = results[slot]
        if slot in claimed:
            stats = copy.deepcopy(stats)
        else:
            claimed.add(slot)
        out.append(stats)
    return out


class _Columns:
    """Config-invariant per-trace precompute for the timing walk.

    Everything the walk derives from the trace alone -- the flat
    python lists of the columns it reads on every instruction, the
    source registers with the sentinel slot filled in, the FU latency
    column and the branch count -- is computed once here.
    :func:`simulate` builds one per call; :func:`simulate_batch`
    builds one and shares it across every config in the batch.
    Columns read only at rare events (``$sp`` writes, predicted
    branches) stay in ``trace``.
    """

    __slots__ = (
        "n", "trace", "flags_l", "size_l", "src0_l", "src1_l", "base_l",
        "dst_l", "addr_l", "latency_l", "total_branches",
    )

    def __init__(self, trace: ColumnarTrace):
        self.trace = trace
        self.n = len(trace.pc)
        self.flags_l = list(trace.flags)
        self.size_l = list(trace.size)
        nsrc = trace.nsrc
        self.src0_l = [
            src if count else _READY for src, count in zip(trace.src0, nsrc)
        ]
        self.src1_l = [
            src if count > 1 else _READY
            for src, count in zip(trace.src1, nsrc)
        ]
        self.base_l = trace.base.tolist()
        self.dst_l = trace.dst.tolist()
        self.addr_l = trace.addr.tolist()
        self.latency_l = [
            0 if flags & 3 else _FU_LATENCY[op]
            for flags, op in zip(self.flags_l, trace.opcode)
        ]
        self.total_branches = sum(1 for flags in self.flags_l if flags & 4)


def _walk(config: MachineConfig, columns: _Columns) -> SimStats:
    """Walk the whole trace on one machine; returns its :class:`SimStats`.

    All trace-derived state comes from ``columns``, so the walks of a
    :func:`simulate_batch` call share one :class:`_Columns`.
    """
    stats = SimStats(config_name=config.name)
    predictor = make_predictor(config.branch_predictor)
    # Perfect prediction is the common case; skip the call entirely.
    predict_bits = None
    if config.branch_predictor != "perfect":
        predict_bits = predictor.predict_bits
    dl1, l2 = build_hierarchy(config.dl1, config.l2, config.memory_latency)

    svf_conf = config.svf
    mode = svf_conf.mode
    svf: Optional[StackValueFile] = None
    stack_cache: Optional[StackCache] = None
    if mode == "svf":
        svf = StackValueFile(
            capacity_bytes=svf_conf.capacity_bytes,
            granularity=svf_conf.granularity,
        )
        # Writebacks land in the DL1 (write-back path), so data the SVF
        # spills can be re-read at L1 latency.
        svf.writeback_sink = lambda addr: dl1.access(addr, True)
    elif mode == "stack_cache":
        stack_cache = StackCache(capacity_bytes=svf_conf.capacity_bytes)

    n = columns.n
    trace = columns.trace
    addr_l = columns.addr_l
    base_l = columns.base_l
    size_l = columns.size_l

    # --------------------------------------- dense occupancy windows
    # Every cycle any probe can touch for this instruction is bounded
    # by the latest commit cycle plus one worst-case latency/penalty
    # chain, so one growth check per instruction keeps every list
    # indexing in bounds.
    dispatch_width = config.decode_width
    issue_width = config.issue_width
    commit_width = config.commit_width
    mult_width = config.int_mults
    dl1_width = config.dl1_ports
    stack_width = svf_conf.ports
    forward_latency = config.store_forward_latency
    margin = (
        256
        + config.frontend_depth
        + config.agu_depth
        + 24
        + 2 * (config.dl1.latency + config.l2.latency
               + config.memory_latency)
        + config.mispredict_redirect
        + svf_conf.squash_penalty
        + config.context_switch_overhead
        + forward_latency
    )
    capacity = n + margin + 64
    windows = [
        CycleWindow("issue", issue_width, capacity),
        CycleWindow("mult", mult_width, capacity),
        CycleWindow("dl1_ports", dl1_width, capacity),
    ]
    issue_slots = windows[0].slots
    mult_slots = windows[1].slots
    dl1_slots = windows[2].slots
    # An ALU op also takes an issue slot in the same cycle, so at least
    # as many ALUs as issue slots can never bind: skip the ALU window.
    alu_slots = None
    alu_width = config.int_alus
    if alu_width < issue_width:
        windows.append(CycleWindow("alu", alu_width, capacity))
        alu_slots = windows[-1].slots
    stack_slots = None
    if mode in ("svf", "stack_cache"):
        windows.append(CycleWindow("stack_ports", stack_width, capacity))
        stack_slots = windows[-1].slots
    # Banked SVF: one single-ported window per bank, selected by the
    # low-order word-address bits (conclusion of the paper: banking is
    # the cheap alternative to true multiporting).
    bank_slots = None
    num_banks = svf_conf.banks
    if mode == "svf" and num_banks > 0:
        bank_windows = [
            CycleWindow(f"svf_bank{i}", 1, capacity)
            for i in range(num_banks)
        ]
        windows.extend(bank_windows)
        bank_slots = [w.slots for w in bank_windows]
    grow_at = capacity - margin

    # Register ready cycles, plus the two sentinel slots: sources the
    # instruction lacks read ``_READY`` (always 0) and a missing
    # destination (-1) writes the last slot, which nothing reads.
    reg_ready = [0] * (NUM_REGISTERS + 2)
    # Quad-word -> completion cycle of the SVF entry's last write, of
    # the last store in the LSQ, and of a pending rerouted gpr-store.
    entry_ready = {}
    last_store = {}
    pending_gpr_store = {}
    er_get = entry_ready.get
    ls_get = last_store.get
    pg_get = pending_gpr_store.get

    # Ring heads read the dispatch/commit/LSQ-commit history directly:
    # the head of a size-k ring fed once per instruction is the value
    # appended k instructions ago, and k prefilled zeros (never above
    # any floor) stand in for the entries before the first.
    disp_hist = [0] * config.ifq_size
    disp_append = disp_hist.append
    commit_hist = [0] * config.ruu_size
    commit_append = commit_hist.append
    lsq_hist = [0] * config.lsq_size
    lsq_append = lsq_hist.append
    mem_count = 0

    # Fetch needs no stage of its own: with fetch and dispatch both
    # ``decode_width`` wide, allocating fetch and then dispatch yields
    # the dispatch cycles of one allocation from the fetch floor plus
    # ``frontend_depth`` (docs/timing-model.md gives the argument).  The
    # fetch floor is the latest redirect -- a mispredict, squash or
    # context switch -- or the $sp decode block moved back by the
    # frontend depth; it and the ring heads never decrease, so dispatch
    # and commit each collapse to a scalar (current cycle, units free)
    # pair.
    redirect_at = 0
    frontend_depth = config.frontend_depth
    disp_cur = -1
    disp_free = 0
    commit_cur = 0
    commit_free = 0
    # Adaptive disable (Section 3.3): watch the squash rate and shut
    # the SVF off for a cooling period when it misbehaves locally.
    adaptive = svf_conf.adaptive and mode == "svf"
    svf_disabled_until = -1
    window_end = svf_conf.adaptive_window if adaptive else n
    window_squashes = 0
    disables = 0
    dl1_latency = config.dl1.latency
    agu_depth = config.agu_depth
    no_addr_calc = config.no_addr_calc
    spec_sp = svf_conf.spec_sp
    mispredict_redirect = config.mispredict_redirect
    sp_block_mode = mode in ("svf", "ideal")
    # The route every stack-region reference takes before the SVF's own
    # bounds check; off-stack references always use the DL1.
    stack_route = {"ideal": _R_FAST, "stack_cache": _R_SC,
                   "svf": _R_SVF}.get(mode, _R_DL1)
    svf_fast_latency = svf_conf.fast_latency
    reroute_latency = svf_conf.reroute_latency
    no_squash = svf_conf.no_squash
    squash_penalty = svf_conf.squash_penalty
    adaptive_threshold = svf_conf.adaptive_threshold
    adaptive_off_period = svf_conf.adaptive_off_period
    adaptive_window = svf_conf.adaptive_window
    dl1_access = dl1.access
    svf_access = svf.access if svf is not None else None
    # The SVF window [svf_lo, svf_hi) follows the traced $sp.
    svf_lo = svf_hi = 0
    if svf is not None and n:
        svf.update_sp(trace.sp[0])
        svf_lo = svf.tos
        svf_hi = svf_lo + svf.capacity
    # Branch flag bit to predict on, 0 under perfect prediction; one
    # test of ``rare`` skips both branch and $sp handling.
    predicted = 4 if predict_bits is not None else 0
    rare = predicted | 32

    switch_period = config.context_switch_period
    switch_overhead = config.context_switch_overhead
    next_switch = switch_period if switch_period else n
    # Context switches and adaptive-window ends are the only events
    # tied to the instruction count (``n`` = never).
    next_event = min(next_switch, window_end)
    switch_bytes = 0
    switches = 0

    branches = 0
    mispredictions = 0
    stores = 0
    loads = 0
    store_forwards = 0
    fast_stores = 0
    fast_loads = 0
    rerouted = 0
    out_of_range = 0
    squashes = 0

    for index, flags, latency, src0, src1, dst in zip(
        range(n), columns.flags_l, columns.latency_l, columns.src0_l,
        columns.src1_l, columns.dst_l,
    ):
        if commit_cur >= grow_at:
            grow_at = grow_windows(
                windows, commit_cur + 2 * margin + 1024
            ) - margin

        # ------------------------------ context switches, adaptive SVF
        if index == next_event:
            if index == next_switch:
                next_switch += switch_period
                switches += 1
                when = commit_cur + switch_overhead
                if when > redirect_at:
                    redirect_at = when
                if svf is not None:
                    switch_bytes += svf.context_switch()
                    entry_ready.clear()
                    pending_gpr_store.clear()
                if stack_cache is not None:
                    switch_bytes += stack_cache.context_switch()
                last_store.clear()
            if index == window_end:
                if window_squashes >= adaptive_threshold:
                    svf_disabled_until = index + adaptive_off_period
                    disables += 1
                    svf.context_switch()
                    pending_gpr_store.clear()
                window_squashes = 0
                window_end = index + adaptive_window
            next_event = min(next_switch, window_end)

        # ---------------------------------------------------- dispatch
        cycle = disp_hist[index]
        if redirect_at > cycle:
            cycle = redirect_at
        cycle += frontend_depth
        head = commit_hist[index]
        if head > cycle:
            cycle = head
        if not latency:
            head = lsq_hist[mem_count]
            if head > cycle:
                cycle = head
        if cycle > disp_cur:
            disp_cur = cycle
            disp_free = dispatch_width - 1
        elif disp_free:
            disp_free -= 1
        else:
            disp_cur += 1
            disp_free = dispatch_width - 1
        disp_append(disp_cur)

        # ------------------------------------ routing and readiness
        # ``issue`` rises from the cycle after dispatch to the ready
        # cycle, then to the first cycle with the slots it needs.
        issue = disp_cur + 1
        if not latency:
            addr = addr_l[index]
            qw = addr & -8
            on_stack = addr >= STACK_REGION_FLOOR
            route = stack_route if on_stack else _R_DL1
            if route == _R_SVF:
                if index < svf_disabled_until:
                    route = _R_DL1
                elif svf_lo <= addr < svf_hi:
                    route = _R_FAST if base_l[index] == SP else _R_REROUTE
                else:
                    out_of_range += 1
                    route = _R_DL1
            if (route == _R_FAST and spec_sp) or (no_addr_calc and on_stack):
                # The address needs no calculation: only the data
                # source, never the base register, gates issue.
                base = base_l[index]
                if src0 != base and reg_ready[src0] > issue:
                    issue = reg_ready[src0]
                if src1 != base and reg_ready[src1] > issue:
                    issue = reg_ready[src1]
            else:
                # Deep pipelines place address generation several
                # stages past dispatch; morphed references resolved
                # in decode skip those stages entirely (Section 3.1).
                issue += agu_depth
                when = reg_ready[src0]
                if when > issue:
                    issue = when
                when = reg_ready[src1]
                if when > issue:
                    issue = when
            if route == _R_DL1:
                unit_slots = dl1_slots
                unit_width = dl1_width
            elif bank_slots is not None:
                unit_slots = bank_slots[(qw >> 3) % num_banks]
                unit_width = 1
            else:  # stack ports, or None in ideal mode (no port limit)
                unit_slots = stack_slots
                unit_width = stack_width
        else:
            when = reg_ready[src0]
            if when > issue:
                issue = when
            when = reg_ready[src1]
            if when > issue:
                issue = when
            if latency > 1:
                unit_slots = mult_slots
                unit_width = mult_width
            else:
                unit_slots = alu_slots
                unit_width = alu_width

        # ------------------------------------------------------- issue
        if unit_slots is None:
            used = issue_slots[issue]
            while used >= issue_width:
                issue += 1
                used = issue_slots[issue]
            issue_slots[issue] = used + 1
        else:
            while True:
                used = issue_slots[issue]
                if used < issue_width:
                    unit_use = unit_slots[issue]
                    if unit_use < unit_width:
                        issue_slots[issue] = used + 1
                        unit_slots[issue] = unit_use + 1
                        break
                issue += 1

        # ---------------------------------------------------- complete
        if latency:
            complete = issue + latency
        else:
            is_store = flags & 2
            if is_store:
                stores += 1
            else:
                loads += 1
            if route == _R_DL1:
                if is_store:
                    dl1_access(addr, True)
                    complete = issue + 1
                    last_store[qw] = complete
                else:
                    when = ls_get(qw, 0)
                    if when > issue:
                        store_forwards += 1
                        complete = when + forward_latency
                    else:
                        complete = issue + dl1_access(addr)
            elif route == _R_FAST:
                fast_latency = svf_fast_latency
                if svf is not None and svf_access(
                    addr, size_l[index], is_store
                ).filled:
                    # A demand fill reads the word from the L1: L1 (or
                    # below) latency plus one cycle of SVF insertion.
                    fast_latency = dl1_access(addr) + 1
                if is_store:
                    fast_stores += 1
                    complete = issue + svf_fast_latency
                    entry_ready[qw] = complete
                else:
                    fast_loads += 1
                    complete = issue + fast_latency
                    when = er_get(qw, 0) + 1
                    if when > complete:
                        complete = when
                    # Squash check (Section 3.2): a pending gpr-store
                    # to the same word not complete by our issue time.
                    when = pg_get(qw, 0)
                    if when > issue:
                        if no_squash:
                            if when + 1 > complete:
                                complete = when + 1
                        else:
                            squashes += 1
                            window_squashes += 1
                            if when + squash_penalty > redirect_at:
                                redirect_at = when + squash_penalty
                            if when + svf_fast_latency > complete:
                                complete = when + svf_fast_latency
            elif route == _R_REROUTE:
                rerouted += 1
                access_latency = reroute_latency
                if svf_access(addr, size_l[index], is_store).filled:
                    access_latency = dl1_access(addr) + 1
                if is_store:
                    # Stores complete into the LSQ as on the DL1
                    # path; the reroute penalty applies to loads,
                    # which must poll the SVF once their address
                    # resolves.
                    complete = issue + 1
                    entry_ready[qw] = complete
                    pending_gpr_store[qw] = complete
                else:
                    when = er_get(qw, 0)
                    complete = (
                        issue if issue > when else when
                    ) + access_latency
            else:  # _R_SC
                if stack_cache.access(addr, size_l[index], is_store).hit:
                    access_latency = dl1_latency
                else:
                    access_latency = l2.access(addr, is_store)
                if is_store:
                    complete = issue + 1
                    last_store[qw] = complete
                else:
                    when = ls_get(qw, 0)
                    if when > issue:
                        store_forwards += 1
                        complete = when + forward_latency
                    else:
                        complete = issue + access_latency

        # ------------------------------------------ branches, $sp
        if flags & rare:
            if flags & predicted:
                branches += 1
                if not predict_bits(trace.pc[index], flags & 8, flags & 16):
                    mispredictions += 1
                    when = complete + mispredict_redirect
                    if when > redirect_at:
                        redirect_at = when
            # $sp interlock: unexpected (non-immediate) updates stall
            # decode of everything younger until the new $sp resolves.
            if flags & 32:
                if svf is not None:
                    svf.update_sp(trace.sp[index])
                    svf_lo = svf.tos
                    svf_hi = svf_lo + svf.capacity
                if sp_block_mode and not (
                    trace.opcode[index] == _LDA and trace.spimm[index] != 0
                ):
                    when = complete - frontend_depth
                    if when > redirect_at:
                        redirect_at = when

        # ----------------------------------------------------- commit
        if complete >= commit_cur:
            commit_cur = complete + 1
            commit_free = commit_width - 1
        elif commit_free:
            commit_free -= 1
        else:
            commit_cur += 1
            commit_free = commit_width - 1
        commit_append(commit_cur)
        if not latency:
            lsq_append(commit_cur)
            mem_count += 1
        reg_ready[dst] = complete

    stats.instructions = n
    stats.branches = (
        columns.total_branches if predict_bits is None else branches
    )
    stats.mispredictions = mispredictions
    stats.cycles = commit_cur
    stats.dl1_accesses = dl1.hits + dl1.misses
    stats.dl1_hits = dl1.hits
    stats.dl1_misses = dl1.misses
    stats.l2_misses = l2.misses
    stats.stores = stores
    stats.loads = loads
    stats.store_forwards = store_forwards
    stats.svf_fast_stores = fast_stores
    stats.svf_fast_loads = fast_loads
    stats.svf_rerouted = rerouted
    stats.svf_out_of_range = out_of_range
    stats.svf_squashes = squashes
    if stack_cache is not None:
        stats.stack_cache_hits = stack_cache.hits
        stats.stack_cache_misses = stack_cache.misses
    if svf is not None:
        stats.svf_fills = svf.fills
    if adaptive:
        stats.extras["svf_disables"] = disables
    if switch_period:
        stats.extras["context_switches"] = switches
        stats.extras["switch_writeback_bytes"] = switch_bytes
    return stats
