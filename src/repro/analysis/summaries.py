"""Interprocedural per-function summaries, computed bottom-up on SCCs.

Each function gets one :class:`FunctionSummary` holding everything the
certifier (:mod:`repro.analysis.certify`) composes into program-level
verdicts:

* **net $sp effect** at returns and the **max local frame depth** in
  bytes, from the same entry-relative offset tracking the lint passes
  use (:func:`repro.analysis.stackcheck.analyze_frames`);
* **escaped-slot facts** from the token escape dataflow of
  :func:`repro.analysis.stackcheck.escape_events`, the one lint
  renders: every stack address carries the entry-relative offset it
  was taken at, so a pointer stored to memory or handed to a callee
  names *which* slot became aliasable — CleanStack's unclean-object
  taint (arXiv 2503.16950) at slot granularity;
* **callee-clobbered registers**, closed transitively over the call
  graph (all caller-saved registers at indirect call sites);
* **worst-case stack depth** including callees, from a bottom-up
  recurrence over the SCC condensation: depth(F) = max(local frame
  growth, max over call sites of ``depth-at-site + depth(callee)``);
  any recursive SCC or indirect call makes the bound ``None``
  (UNBOUNDED / unknown), never a wrong number.

The escape analysis runs twice per function: once *unseeded* (taint
originates only at the function's own ``$sp``/``$fp``) and once
*seeded* with every argument register tainted by a ``("caller", reg)``
token.  A pure graph fixpoint over the recorded events then decides
which functions actually receive caller stack addresses, which
argument registers leak them onward, and therefore which address-taken
slots are merely *local escapes*, *callee-shared*, or fully *unclean*
(stored outside the stack, visible to arbitrary aliases).  Nothing is
re-analyzed during the fixpoint — it runs on the event tuples alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.callgraph import CallGraph, build_call_graph
from repro.analysis.cfg import FunctionCFG, ProgramCFG, build_cfg
from repro.analysis.report import Diagnostic, Severity
from repro.analysis.stackcheck import (
    _CALLER_SAVED,
    _STACK_BASES,
    UNKNOWN,
    EscapeEvents,
    FrameContext,
    Token,
    analyze_frames,
    escape_events,
    first_read_pass,
)

#: Slot classification lattice, least-escaped first.
SLOT_PRIVATE = "private"
SLOT_LOCAL = "local-escape"
SLOT_SHARED = "callee-shared"
SLOT_UNCLEAN = "unclean"


@dataclass
class FunctionSummary:
    """Everything the certifier needs to know about one function."""

    name: str
    sp_tracked: bool
    local_depth: int  # bytes of own-frame growth
    net_sp: Optional[int]  # consistent $sp offset at returns (0 = balanced)
    address_taken: Tuple[int, ...] = ()
    first_reads: int = 0
    #: (site index, callee name or None, entry-relative $sp at the site)
    calls: Tuple[Tuple[int, Optional[str], Optional[int]], ...] = ()
    recursive: bool = False
    own_clobbered: FrozenSet[int] = frozenset()
    clobbered: FrozenSet[int] = frozenset()  # closed over callees
    worst_depth: Optional[int] = None  # None = unbounded / unknown
    depth_reason: str = ""  # why worst_depth is None
    events_local: EscapeEvents = EscapeEvents()
    events_seeded: EscapeEvents = EscapeEvents()
    #: argument registers that may carry a caller stack address
    receives_stack: FrozenSet[int] = frozenset()
    #: resolved: may this function access stack memory off a computed base?
    gpr_access: bool = False
    #: offset -> SLOT_* for every address-taken offset
    slot_classes: Dict[int, str] = field(default_factory=dict)
    #: sp-balance / frame-bounds diagnostics from ``analyze_frames``
    diagnostics: List[Diagnostic] = field(default_factory=list)

    @property
    def error_count(self) -> int:
        return sum(
            1 for d in self.diagnostics if d.severity is Severity.ERROR
        )

    @property
    def has_unclean(self) -> bool:
        """Some slot of this frame (or a caller address it received)
        escapes to memory the stack tracking cannot see."""
        if any(c == SLOT_UNCLEAN for c in self.slot_classes.values()):
            return True
        if self.events_local.unclean:
            return True
        for _index, tokens in self.events_seeded.unclean:
            for token in tokens:
                if (
                    isinstance(token, tuple)
                    and token[1] in self.receives_stack
                ):
                    return True
        return False


@dataclass
class ProgramSummary:
    """Per-function summaries plus the call graph they were built on."""

    graph: CallGraph
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    #: function names in bottom-up (callees-first) SCC order
    order: List[str] = field(default_factory=list)

    @property
    def root(self) -> Optional[str]:
        return self.graph.root

    def live(self) -> Set[str]:
        return self.graph.reachable()

    def program_depth(self) -> Tuple[Optional[int], str]:
        """Worst-case stack depth of the whole program in bytes.

        Returns ``(bound, reason)``; ``bound`` is None when unbounded
        or unknowable, with ``reason`` naming why.
        """
        if self.root is None:
            return None, "no entry function"
        summary = self.functions[self.root]
        return summary.worst_depth, summary.depth_reason


def _is_stack_token(token: Token) -> bool:
    return isinstance(token, int) or token == UNKNOWN


# ---------------------------------------------------------------------------
# Summary construction
# ---------------------------------------------------------------------------


def _frame_summary(function: FunctionCFG, graph: CallGraph
                   ) -> Tuple[FunctionSummary, FrameContext]:
    context, diagnostics = analyze_frames(function)
    name = function.name

    return_offsets: Set = set()
    clobbered: Set[int] = set()
    reachable_indices: Set[int] = set()
    for block in function.blocks:
        if block.id not in context.reachable:
            continue
        reachable_indices.update(block.indices())
        for index in block.indices():
            instruction = function.instruction(index)
            destination = instruction.destination_register()
            if destination is not None and destination not in _STACK_BASES:
                clobbered.add(destination)
            if instruction.is_return:
                return_offsets.add(
                    context.offsets.get(index, (None, None))[0]
                )

    net_sp: Optional[int] = None
    if len(return_offsets) == 1:
        only = next(iter(return_offsets))
        if isinstance(only, int):
            net_sp = only

    calls: List[Tuple[int, Optional[str], Optional[int]]] = []
    for site in graph.sites.get(name, ()):
        if site.index not in reachable_indices:
            continue  # a call on dead code contributes no depth
        sp_at = context.offsets.get(site.index, (None, None))[0]
        calls.append((
            site.index,
            site.callee,
            sp_at if isinstance(sp_at, int) else None,
        ))

    first_reads = (
        len(first_read_pass(context)) if context.sp_tracked else 0
    )
    summary = FunctionSummary(
        name=name,
        sp_tracked=context.sp_tracked,
        local_depth=-context.deepest_sp,
        net_sp=net_sp,
        address_taken=tuple(sorted(context.address_taken)),
        first_reads=first_reads,
        calls=tuple(calls),
        recursive=graph.is_recursive(name),
        own_clobbered=frozenset(clobbered),
        diagnostics=diagnostics,
    )
    return summary, context


def _close_clobbers(summaries: Dict[str, FunctionSummary],
                    graph: CallGraph) -> None:
    """clobbered(F) = own(F) ∪ ⋃ clobbered(callees), bottom-up."""
    all_caller_saved = frozenset(_CALLER_SAVED)
    for component in graph.sccs:
        shared: Set[int] = set()
        for name in component:
            shared |= summaries[name].own_clobbered
            if name in graph.unknown_callers:
                shared |= all_caller_saved
            for callee in graph.edges.get(name, ()):
                if callee in component:
                    continue
                shared |= summaries[callee].clobbered
        for name in component:
            summaries[name].clobbered = frozenset(shared)


def _solve_depths(summaries: Dict[str, FunctionSummary],
                  graph: CallGraph) -> None:
    """Bottom-up worst-case depth; None bounds carry a reason."""
    for component in graph.sccs:
        if len(component) > 1 or graph.is_recursive(component[0]):
            for name in component:
                summaries[name].worst_depth = None
                summaries[name].depth_reason = "recursion"
            continue
        name = component[0]
        summary = summaries[name]
        if not summary.sp_tracked:
            summary.worst_depth = None
            summary.depth_reason = "untracked-sp"
            continue
        worst = summary.local_depth
        reason = ""
        for _index, callee, sp_at in summary.calls:
            if callee is None:
                worst, reason = None, "indirect-call"
                break
            callee_summary = summaries[callee]
            if callee_summary.worst_depth is None:
                worst = None
                reason = callee_summary.depth_reason or "callee"
                break
            if sp_at is None:
                worst, reason = None, "untracked-sp"
                break
            worst = max(worst, -sp_at + callee_summary.worst_depth)
        summary.worst_depth = worst
        summary.depth_reason = reason


def _resolve_escapes(summaries: Dict[str, FunctionSummary],
                     graph: CallGraph) -> None:
    """Graph fixpoints over the recorded escape events.

    1. ``received``: which (function, argument register) pairs may
       carry a caller stack address — seeded by direct passes of
       offset tokens, propagated along seeded-variant forwarding.
    2. ``leaky``: which (function, argument register) pairs may store
       that address to unclean memory, directly or via a deeper call.
    3. Per-slot classification and the resolved gpr_access bit.
    """
    received: Set[Tuple[str, int]] = set()
    forwards: Dict[Tuple[str, int], Set[Tuple[str, int]]] = {}

    for name, summary in summaries.items():
        for _index, callee, register, tokens in summary.events_local.passes:
            if callee is not None and any(
                _is_stack_token(t) for t in tokens
            ):
                received.add((callee, register))
        for _index, callee, register, tokens in summary.events_seeded.passes:
            if callee is None:
                continue
            for token in tokens:
                if isinstance(token, tuple):
                    forwards.setdefault((name, token[1]), set()).add(
                        (callee, register)
                    )

    work = list(received)
    while work:
        key = work.pop()
        for target in forwards.get(key, ()):
            if target not in received:
                received.add(target)
                work.append(target)

    # leaky: argument registers whose address reaches unclean memory.
    leaky: Set[Tuple[str, int]] = set()
    for name, summary in summaries.items():
        for _index, _tokens in summary.events_seeded.unclean:
            for token in _tokens:
                if isinstance(token, tuple):
                    leaky.add((name, token[1]))
        # an address forwarded to an unknown callee may leak anywhere
        for _index, callee, register, tokens in summary.events_seeded.passes:
            if callee is None:
                for token in tokens:
                    if isinstance(token, tuple):
                        leaky.add((name, token[1]))
    changed = True
    while changed:
        changed = False
        for source, targets in forwards.items():
            if source in leaky:
                continue
            if any(target in leaky for target in targets):
                leaky.add(source)
                changed = True

    for name, summary in summaries.items():
        summary.receives_stack = frozenset(
            register for (func, register) in received if func == name
        )

        unclean_offsets: Set[int] = set()
        shared_offsets: Set[int] = set()
        for _index, tokens in summary.events_local.unclean:
            unclean_offsets.update(
                t for t in tokens if isinstance(t, int)
            )
        for _index, callee, register, tokens in summary.events_local.passes:
            offsets = {t for t in tokens if isinstance(t, int)}
            shared_offsets.update(offsets)
            if callee is None or (callee, register) in leaky:
                unclean_offsets.update(offsets)

        classes: Dict[int, str] = {}
        for offset in summary.address_taken:
            if offset in unclean_offsets:
                classes[offset] = SLOT_UNCLEAN
            elif offset in shared_offsets:
                classes[offset] = SLOT_SHARED
            else:
                classes[offset] = SLOT_LOCAL
        summary.slot_classes = classes

        gpr = bool(summary.events_local.gpr_sites)
        if not gpr:
            for _index, tokens in summary.events_seeded.gpr_sites:
                for token in tokens:
                    if (
                        isinstance(token, tuple)
                        and token[1] in summary.receives_stack
                    ):
                        gpr = True
                        break
                if gpr:
                    break
        summary.gpr_access = gpr


def summarize_program(source, graph: Optional[CallGraph] = None
                      ) -> ProgramSummary:
    """Summaries for every function of a :class:`Program` /
    :class:`ProgramCFG`, computed bottom-up on the SCC condensation."""
    pcfg = source if isinstance(source, ProgramCFG) else build_cfg(source)
    if graph is None:
        graph = build_call_graph(pcfg)
    result = ProgramSummary(graph=graph)

    contexts: Dict[str, FrameContext] = {}
    for component in graph.sccs:
        for name in component:
            summary, context = _frame_summary(pcfg.functions[name], graph)
            contexts[name] = context
            result.functions[name] = summary
            result.order.append(name)

    for name, summary in result.functions.items():
        if summary.sp_tracked:
            site_callee = {
                site.index: site.callee for site in graph.sites.get(name, ())
            }
            summary.events_local = escape_events(
                contexts[name], site_callee, seeded=False
            )
            summary.events_seeded = escape_events(
                contexts[name], site_callee, seeded=True
            )

    _close_clobbers(result.functions, graph)
    _solve_depths(result.functions, graph)
    _resolve_escapes(result.functions, graph)
    return result


__all__ = [
    "FunctionSummary",
    "ProgramSummary",
    "SLOT_LOCAL",
    "SLOT_PRIVATE",
    "SLOT_SHARED",
    "SLOT_UNCLEAN",
    "summarize_program",
]
