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
are packed on entry): :class:`_Columns` turns the columns into flat
python lists and derives the per-instruction values every config
needs (quad-word address, stack-region test, FU latency) once per
trace.  Issue, FU and port occupancy live in dense
:class:`~repro.uarch.resources.CycleWindow` lists indexed by cycle;
the fetch, dispatch and commit pools collapse to scalar (cycle, units
used) pairs because their floors never decrease; the IFQ/RUU/LSQ ring
heads are read from the dispatch/commit history lists; and memory
completion is written out route by route.
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

#: Completion latency of IMULT ops by opcode number (0 = not an IMULT).
_MULT_LATENCY = [0] * (len(OPCODE_NUMBERS) + 1)
for _name, _num in OPCODE_NUMBERS.items():
    if OPCODES[_name].op_class is OpClass.IMULT:
        _MULT_LATENCY[_num] = 20 if _name in _DIV_OPS else 3

_LDA = OPCODE_NUMBERS["lda"]

#: Integer route codes for memory references.
_R_DL1 = 0
_R_FAST = 1
_R_REROUTE = 2
_R_SC = 3

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

    Everything the walk derives from the trace alone — the flat python
    lists, the quad-word/stack-region/FU-latency columns, the branch
    count — is computed once here.  :func:`simulate` builds one per
    call; :func:`simulate_batch` builds one and shares it across every
    config in the batch.  ``pc_list`` is lazy because only non-perfect
    predictors read the PC column.
    """

    __slots__ = (
        "n", "flags_l", "opcode_l", "size_l", "nsrc_l", "src0_l",
        "src1_l", "base_l", "dst_l", "sp_l", "spimm_l", "addr_l",
        "qw_l", "on_stack_l", "fu_latency_l", "total_branches",
        "_trace", "_pc_l",
    )

    def __init__(self, trace: ColumnarTrace):
        self._trace = trace
        self._pc_l = None
        self.n = len(trace.pc)
        self.flags_l = list(trace.flags)
        self.opcode_l = list(trace.opcode)
        self.size_l = list(trace.size)
        self.nsrc_l = list(trace.nsrc)
        self.src0_l = list(trace.src0)
        self.src1_l = list(trace.src1)
        self.base_l = trace.base.tolist()
        self.dst_l = trace.dst.tolist()
        self.sp_l = trace.sp.tolist()
        self.spimm_l = trace.spimm.tolist()
        self.addr_l = addr_l = trace.addr.tolist()
        self.qw_l = [addr & ~7 for addr in addr_l]
        self.on_stack_l = [addr >= STACK_REGION_FLOOR for addr in addr_l]
        self.fu_latency_l = [_MULT_LATENCY[op] for op in self.opcode_l]
        self.total_branches = sum(1 for flags in self.flags_l if flags & 4)

    def pc_list(self) -> list:
        if self._pc_l is None:
            self._pc_l = self._trace.pc.tolist()
        return self._pc_l


def _walk(config: MachineConfig, columns: _Columns) -> SimStats:
    """Walk the whole trace on one machine; returns its :class:`SimStats`.

    All trace-derived state comes from ``columns``, so the walks of a
    :func:`simulate_batch` call share one :class:`_Columns`.
    """
    stats = SimStats(config_name=config.name)
    predictor = make_predictor(config.branch_predictor)
    # Perfect prediction is the common case; skip the call entirely.
    predict_bits = getattr(predictor, "predict_bits", None)
    if config.branch_predictor == "perfect":
        predict_bits = None
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
        svf.writeback_sink = lambda addr: dl1.access(addr, is_write=True)
    elif mode == "stack_cache":
        stack_cache = StackCache(capacity_bytes=svf_conf.capacity_bytes)

    n = columns.n

    # -------------------------- columns shared across the whole batch
    flags_l = columns.flags_l
    opcode_l = columns.opcode_l
    size_l = columns.size_l
    nsrc_l = columns.nsrc_l
    src0_l = columns.src0_l
    src1_l = columns.src1_l
    base_l = columns.base_l
    dst_l = columns.dst_l
    sp_l = columns.sp_l
    spimm_l = columns.spimm_l
    addr_l = columns.addr_l
    pc_l = columns.pc_list() if predict_bits is not None else None
    qw_l = columns.qw_l
    on_stack_l = columns.on_stack_l
    fu_latency_l = columns.fu_latency_l
    total_branches = columns.total_branches

    # --------------------------------------- dense occupancy windows
    # The horizon tracks the highest commit cycle so far; every cycle
    # any probe can touch this instruction is bounded by the horizon
    # plus one worst-case latency/penalty chain, so one growth check
    # per instruction keeps every list indexing in bounds.
    fetch_width = config.decode_width
    dispatch_width = config.decode_width
    issue_width = config.issue_width
    commit_width = config.commit_width
    alu_width = config.int_alus
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
        CycleWindow("alu", alu_width, capacity),
        CycleWindow("mult", mult_width, capacity),
        CycleWindow("dl1_ports", dl1_width, capacity),
    ]
    issue_slots = windows[0].slots
    alu_slots = windows[1].slots
    mult_slots = windows[2].slots
    dl1_slots = windows[3].slots
    stack_slots = None
    if mode in ("svf", "stack_cache"):
        stack_window = CycleWindow("stack_ports", stack_width, capacity)
        windows.append(stack_window)
        stack_slots = stack_window.slots
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
    pool_len = capacity

    reg_ready = [0] * NUM_REGISTERS
    entry_ready = {}
    last_store = {}
    pending_gpr_store = {}
    er_get = entry_ready.get
    ls_get = last_store.get
    pg_get = pending_gpr_store.get

    ifq_size = config.ifq_size
    ruu_size = config.ruu_size
    lsq_size = config.lsq_size
    # Ring heads read the dispatch/commit/LSQ-commit history directly:
    # the head of a size-k ring fed once per instruction is the value
    # appended k instructions ago.
    disp_hist: list = []
    disp_append = disp_hist.append
    commit_hist: list = []
    commit_append = commit_hist.append
    lsq_hist: list = []
    lsq_append = lsq_hist.append
    mem_count = 0

    redirect_at = 0
    decode_block = 0
    horizon = 0
    # Fetch/dispatch/commit floors are provably non-decreasing (every
    # floor term — redirect_at, the ring heads, the previous cycle of
    # the same stage, decode_block — only ever grows), so each of the
    # three pools collapses to a scalar (current cycle, units used)
    # pair: a probe either lands on the current cycle, advances one
    # when it is full, or jumps forward to a higher floor.  Cycles the
    # floor jumps over can never be probed again.
    fetch_cur = -1
    fetch_cnt = fetch_width
    disp_cur = -1
    disp_cnt = dispatch_width
    commit_cur = 0
    commit_cnt = 0
    sp_seen = svf is None
    # Adaptive disable (Section 3.3): watch the squash rate and shut
    # the SVF off for a cooling period when it misbehaves locally.
    adaptive = svf_conf.adaptive and mode == "svf"
    svf_disabled_until = -1
    window_end = svf_conf.adaptive_window
    window_squashes = 0
    disables = 0
    frontend_depth = config.frontend_depth
    dl1_latency = config.dl1.latency
    agu_depth = config.agu_depth
    no_addr_calc = config.no_addr_calc
    spec_sp = svf_conf.spec_sp
    mispredict_redirect = config.mispredict_redirect
    sp_block_mode = mode in ("svf", "ideal")
    mode_ideal = mode == "ideal"
    mode_svf = mode == "svf"
    mode_sc = mode == "stack_cache"
    svf_fast_latency = svf_conf.fast_latency
    reroute_latency = svf_conf.reroute_latency
    no_squash = svf_conf.no_squash
    squash_penalty = svf_conf.squash_penalty
    adaptive_threshold = svf_conf.adaptive_threshold
    adaptive_off_period = svf_conf.adaptive_off_period
    adaptive_window = svf_conf.adaptive_window
    sp_reg = SP
    lda_op = _LDA
    dl1_access = dl1.access
    svf_access = svf.access if svf is not None else None
    svf_covers = svf.covers if svf is not None else None

    switch_period = config.context_switch_period
    switch_overhead = config.context_switch_overhead
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

    for index in range(n):
        if horizon + margin >= pool_len:
            pool_len = grow_windows(windows, horizon + 2 * margin + 1024)
        flags = flags_l[index]
        is_mem = flags & 3

        # ------------------------------------------- context switches
        if switch_period and index and index % switch_period == 0:
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

        # ------------------------------------------------------ fetch
        cycle = redirect_at
        if index >= ifq_size:
            head = disp_hist[index - ifq_size]
            if head > cycle:
                cycle = head
        if cycle > fetch_cur:
            fetch_cur = cycle
            fetch_cnt = 1
        elif fetch_cnt < fetch_width:
            fetch_cnt += 1
        else:
            fetch_cur += 1
            fetch_cnt = 1
        fetch_cycle = fetch_cur

        # ---------------------------------------------------- dispatch
        cycle = fetch_cycle + frontend_depth
        if disp_cur > cycle:
            cycle = disp_cur
        if decode_block > cycle:
            cycle = decode_block
        if index >= ruu_size:
            head = commit_hist[index - ruu_size]
            if head > cycle:
                cycle = head
        if is_mem and mem_count >= lsq_size:
            head = lsq_hist[mem_count - lsq_size]
            if head > cycle:
                cycle = head
        if cycle > disp_cur:
            disp_cur = cycle
            disp_cnt = 1
        elif disp_cnt < dispatch_width:
            disp_cnt += 1
        else:
            disp_cur += 1
            disp_cnt = 1
        dispatch_cycle = disp_cur
        disp_append(dispatch_cycle)

        # SVF front-end bookkeeping: the speculative $sp copy follows
        # immediate adjustments for free; any other $sp write stalls
        # decode until it resolves (Section 3.1).
        if not sp_seen:
            svf.update_sp(sp_l[index])
            sp_seen = True

        # ----------------------------------------------- routing
        if adaptive and index >= window_end:
            if window_squashes >= adaptive_threshold:
                svf_disabled_until = index + adaptive_off_period
                disables += 1
                svf.context_switch()
                pending_gpr_store.clear()
            window_squashes = 0
            window_end = index + adaptive_window

        # -------------------------- routing, readiness, issue, latency
        if is_mem:
            addr = addr_l[index]
            qw = qw_l[index]
            on_stack = on_stack_l[index]
            route = _R_DL1
            if on_stack:
                if mode_ideal:
                    route = _R_FAST
                elif mode_svf and (
                    not adaptive or index >= svf_disabled_until
                ):
                    if svf_covers(addr):
                        route = (
                            _R_FAST
                            if base_l[index] == sp_reg
                            else _R_REROUTE
                        )
                    else:
                        out_of_range += 1
                elif mode_sc:
                    route = _R_SC
            drop_base = (route == _R_FAST and spec_sp) or (
                no_addr_calc and on_stack
            )
            ready = dispatch_cycle + 1
            if agu_depth and not drop_base:
                # Deep pipelines place address generation several
                # stages past dispatch; morphed references resolved
                # in decode skip those stages entirely (Section 3.1).
                ready += agu_depth
            nsrc = nsrc_l[index]
            if nsrc:
                if drop_base:
                    base = base_l[index]
                    src = src0_l[index]
                    if src != base and reg_ready[src] > ready:
                        ready = reg_ready[src]
                    if nsrc > 1:
                        src = src1_l[index]
                        if src != base and reg_ready[src] > ready:
                            ready = reg_ready[src]
                else:
                    when = reg_ready[src0_l[index]]
                    if when > ready:
                        ready = when
                    if nsrc > 1:
                        when = reg_ready[src1_l[index]]
                        if when > ready:
                            ready = when
            if route == _R_DL1:
                port_slots = dl1_slots
                port_width = dl1_width
            elif route == _R_SC:
                port_slots = stack_slots
                port_width = stack_width
            elif bank_slots is not None:
                port_slots = bank_slots[(qw >> 3) % num_banks]
                port_width = 1
            else:  # svf ports, or None in ideal mode (no port limit)
                port_slots = stack_slots
                port_width = stack_width
            cycle = ready
            if port_slots is None:
                used = issue_slots[cycle]
                while used >= issue_width:
                    cycle += 1
                    used = issue_slots[cycle]
                issue_slots[cycle] = used + 1
            else:
                while True:
                    used = issue_slots[cycle]
                    if used < issue_width:
                        port_use = port_slots[cycle]
                        if port_use < port_width:
                            issue_slots[cycle] = used + 1
                            port_slots[cycle] = port_use + 1
                            break
                    cycle += 1
            issue_cycle = cycle
            is_store = flags & 2
            if is_store:
                stores += 1
            else:
                loads += 1
            if route == _R_DL1:
                if is_store:
                    dl1_access(addr, True)
                    complete = issue_cycle + 1
                    last_store[qw] = (index, complete)
                else:
                    forwarded = ls_get(qw)
                    if forwarded is not None and forwarded[1] > issue_cycle:
                        store_forwards += 1
                        when = forwarded[1]
                        complete = (
                            issue_cycle if issue_cycle > when else when
                        ) + forward_latency
                    else:
                        complete = issue_cycle + dl1_access(addr)
            elif route == _R_FAST:
                fast_latency = svf_fast_latency
                if svf is not None:
                    outcome = svf_access(addr, size_l[index], is_store != 0)
                    if outcome.filled:
                        # A demand fill reads the word from the L1:
                        # L1 (or below) latency plus one cycle of
                        # SVF insertion.
                        fast_latency = dl1_access(addr) + 1
                if is_store:
                    fast_stores += 1
                    complete = issue_cycle + svf_fast_latency
                    entry_ready[qw] = complete
                else:
                    fast_loads += 1
                    complete = issue_cycle + fast_latency
                    when = er_get(qw, 0) + 1
                    if when > complete:
                        complete = when
                    # Squash check (Section 3.2): a pending gpr-store
                    # to the same word not complete by our issue time.
                    pending = pg_get(qw)
                    if (
                        pending is not None
                        and pending[0] < index
                        and pending[1] > issue_cycle
                    ):
                        when = pending[1]
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
                outcome = svf_access(addr, size_l[index], is_store != 0)
                access_latency = reroute_latency
                if outcome.filled:
                    access_latency = dl1_access(addr) + 1
                if is_store:
                    # Stores complete into the LSQ as on the DL1
                    # path; the reroute penalty applies to loads,
                    # which must poll the SVF once their address
                    # resolves.
                    complete = issue_cycle + 1
                    entry_ready[qw] = complete
                    pending_gpr_store[qw] = (index, complete)
                else:
                    when = er_get(qw, 0)
                    complete = (
                        issue_cycle if issue_cycle > when else when
                    ) + access_latency
            else:  # _R_SC
                outcome = stack_cache.access(
                    addr, size_l[index], is_store != 0
                )
                if outcome.hit:
                    access_latency = dl1_latency
                else:
                    access_latency = l2.access(addr, is_store != 0)
                if is_store:
                    complete = issue_cycle + 1
                    last_store[qw] = (index, complete)
                else:
                    forwarded = ls_get(qw)
                    if forwarded is not None and forwarded[1] > issue_cycle:
                        store_forwards += 1
                        when = forwarded[1]
                        complete = (
                            issue_cycle if issue_cycle > when else when
                        ) + forward_latency
                    else:
                        complete = issue_cycle + access_latency
        else:
            ready = dispatch_cycle + 1
            nsrc = nsrc_l[index]
            if nsrc:
                when = reg_ready[src0_l[index]]
                if when > ready:
                    ready = when
                if nsrc > 1:
                    when = reg_ready[src1_l[index]]
                    if when > ready:
                        ready = when
            latency = fu_latency_l[index]
            if latency:
                fu_slots = mult_slots
                fu_width = mult_width
            else:
                fu_slots = alu_slots
                fu_width = alu_width
                latency = 1
            cycle = ready
            while True:
                used = issue_slots[cycle]
                if used < issue_width:
                    fu_use = fu_slots[cycle]
                    if fu_use < fu_width:
                        issue_slots[cycle] = used + 1
                        fu_slots[cycle] = fu_use + 1
                        break
                cycle += 1
            complete = cycle + latency

        # --------------------------------------------------- branches
        if predict_bits is not None and flags & 4:
            branches += 1
            if not predict_bits(pc_l[index], flags & 8, flags & 16):
                mispredictions += 1
                when = complete + mispredict_redirect
                if when > redirect_at:
                    redirect_at = when

        # $sp interlock: unexpected (non-immediate) updates stall
        # decode of everything younger until the new $sp resolves.
        if flags & 32:
            if svf is not None:
                svf.update_sp(sp_l[index])
            if sp_block_mode and not (
                opcode_l[index] == lda_op and spimm_l[index] != 0
            ):
                if complete > decode_block:
                    decode_block = complete
        # ----------------------------------------------------- commit
        cycle = complete + 1
        if cycle > commit_cur:
            commit_cur = cycle
            commit_cnt = 1
        elif commit_cnt < commit_width:
            commit_cnt += 1
        else:
            commit_cur += 1
            commit_cnt = 1
        cycle = commit_cur
        commit_append(cycle)
        if is_mem:
            lsq_append(cycle)
            mem_count += 1
        horizon = cycle

        # ---------------------------------------------------- results
        dst = dst_l[index]
        if dst >= 0:
            reg_ready[dst] = complete

    stats.instructions = n
    stats.branches = total_branches if predict_bits is None else branches
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
