"""Program-level stack-safety certification (``repro certify``).

Composes the interprocedural summaries of
:mod:`repro.analysis.summaries` into one :class:`ProgramCertificate`:

* **worst-case stack depth** — a byte bound with the call chain that
  attains it, or ``UNBOUNDED`` with a concrete recursion cycle (or
  indirect-call site) as witness;
* **per-slot escape classification** — every address-taken frame slot
  is ``local-escape`` (address never leaves the function),
  ``callee-shared`` (handed down a call edge), or ``unclean`` (stored
  to memory outside the stack — CleanStack's unclean objects, the
  aliases the SVF can only catch dynamically);
* **LIFO-discipline proof or counterexample** — the program obeys
  LIFO iff no live function breaks ``$sp`` balance or frame bounds
  and the CFG reconstruction is structurally sound; a violation comes
  with the entry→function call path plus the offending instruction;
* **per-function integrity/confidentiality** — the stack-safety
  lattice of arXiv 2105.00417: a function's frame has integrity
  unless stack errors (violated) or unclean aliases (unknown) exist,
  and is confidential unless it reads frame memory it never wrote
  (a first-read exposes another frame's dead values).

Verdict severity is two-tier.  **Hard flags** (``lifo-violation``,
``structural``, ``unclean-escape``) mean the stack contract the SVF
relies on is broken or unverifiable — ``repro certify`` exits 1.
**Soft flags** (``unbounded-depth``, ``unknown-callee``,
``untracked-sp``) are honest admissions: recursion is legal (four of
the thirteen registry workloads recurse) but admits no static bound,
so the certificate says ``UNBOUNDED`` instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import build_call_graph
from repro.analysis.cfg import FATAL_ANOMALIES, build_cfg
from repro.analysis.summaries import (
    FunctionSummary,
    ProgramSummary,
    SLOT_UNCLEAN,
    summarize_program,
)
from repro.isa.instructions import Program

#: Flag kinds that break certification (exit code 1).
HARD_FLAGS = frozenset({"lifo-violation", "structural", "unclean-escape"})


@dataclass(frozen=True)
class SafetyFlag:
    """One certification finding, with its counterexample call path."""

    kind: str
    function: str
    index: int  # program-wide instruction index (-1: whole function)
    message: str
    #: entry → function call chain (recursion cycles repeat the head)
    path: Tuple[str, ...] = ()

    @property
    def hard(self) -> bool:
        return self.kind in HARD_FLAGS

    def render(self) -> str:
        location = (
            f"{self.function}+{self.index}" if self.index >= 0
            else self.function
        )
        via = f" via {'→'.join(self.path)}" if self.path else ""
        return f"{self.kind} [{location}]{via}: {self.message}"

    def to_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "hard": self.hard,
            "function": self.function,
            "index": self.index,
            "message": self.message,
            "path": list(self.path),
        }


@dataclass(frozen=True)
class FunctionVerdict:
    """The certifier's per-function row."""

    name: str
    live: bool
    recursive: bool
    local_depth: int
    worst_depth: Optional[int]
    slot_classes: Dict[int, str]
    gpr_access: bool
    receives_stack: bool
    integrity: str  # "ok" | "unknown" | "violated"
    confidentiality: str  # "ok" | "leaky"
    clobbered: int  # |callee-closed clobber set|

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "live": self.live,
            "recursive": self.recursive,
            "local_depth": self.local_depth,
            "worst_depth": self.worst_depth,
            "slots": {
                str(offset): cls
                for offset, cls in sorted(self.slot_classes.items())
            },
            "gpr_access": self.gpr_access,
            "receives_stack": self.receives_stack,
            "integrity": self.integrity,
            "confidentiality": self.confidentiality,
            "clobbered_registers": self.clobbered,
        }


@dataclass
class ProgramCertificate:
    """Whole-program verdicts for one assembled program."""

    name: str
    function_count: int
    instruction_count: int
    depth_bound: Optional[int]  # bytes; None = UNBOUNDED / unknown
    depth_reason: str
    depth_chain: Tuple[str, ...]
    flags: List[SafetyFlag] = field(default_factory=list)
    verdicts: Dict[str, FunctionVerdict] = field(default_factory=dict)
    live: Tuple[str, ...] = ()
    summary: Optional[ProgramSummary] = None  # not serialized

    @property
    def hard_flags(self) -> List[SafetyFlag]:
        return [flag for flag in self.flags if flag.hard]

    @property
    def ok(self) -> bool:
        """True when no hard flag exists (soft flags are allowed)."""
        return not self.hard_flags

    @property
    def lifo_ok(self) -> bool:
        return not any(
            flag.kind in ("lifo-violation", "structural")
            for flag in self.flags
        )

    def depth_text(self) -> str:
        if self.depth_bound is not None:
            return f"depth <= {self.depth_bound} bytes"
        reason = self.depth_reason or "unknown"
        return f"depth UNBOUNDED ({reason})"

    def gpr_functions(self) -> Tuple[str, ...]:
        """Live functions that may touch the stack off a computed base.

        When any unclean escape exists the answer degrades to *every*
        live function: an address laundered through memory can
        resurface anywhere, which is exactly why ``unclean`` is a hard
        flag.  Dynamic validation checks observed computed-base stack
        accesses against this set.
        """
        if any(flag.kind == "unclean-escape" for flag in self.flags):
            return tuple(sorted(self.live))
        return tuple(sorted(
            name for name in self.live
            if name in self.verdicts and self.verdicts[name].gpr_access
        ))

    def summary_line(self) -> str:
        status = "CERTIFIED" if self.ok else "FLAGGED"
        hard = len(self.hard_flags)
        soft = len(self.flags) - hard
        lifo = "LIFO proved" if self.lifo_ok else "LIFO violated"
        return (
            f"{self.name}: {status} — {self.depth_text()}, {lifo}, "
            f"{hard} hard / {soft} soft flag(s) "
            f"({self.function_count} functions, {len(self.live)} live, "
            f"{self.instruction_count} instructions)"
        )

    def render_text(self, verbose: bool = True) -> str:
        lines = [self.summary_line()]
        if self.depth_chain:
            joiner = "→".join(self.depth_chain)
            label = (
                "deepest chain" if self.depth_bound is not None
                else "cycle"
            )
            lines.append(f"  {label}: {joiner}")
        for flag in self.flags:
            lines.append("  " + flag.render())
        if verbose:
            for name in sorted(self.verdicts):
                verdict = self.verdicts[name]
                if not verdict.live:
                    continue
                slots = ", ".join(
                    f"{offset:+d}:{cls}"
                    for offset, cls in sorted(verdict.slot_classes.items())
                ) or "all private"
                depth = (
                    f"{verdict.worst_depth}B"
                    if verdict.worst_depth is not None else "unbounded"
                )
                notes = []
                if verdict.recursive:
                    notes.append("recursive")
                if verdict.gpr_access:
                    notes.append("gpr-access")
                if verdict.receives_stack:
                    notes.append("receives-stack-addr")
                note = f" [{', '.join(notes)}]" if notes else ""
                lines.append(
                    f"  {name}: depth {depth}, slots {slots}, "
                    f"integrity {verdict.integrity}, "
                    f"confidentiality {verdict.confidentiality}{note}"
                )
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "lifo_ok": self.lifo_ok,
            "functions": self.function_count,
            "instructions": self.instruction_count,
            "depth_bound": self.depth_bound,
            "depth_reason": self.depth_reason or None,
            "depth_chain": list(self.depth_chain),
            "live": sorted(self.live),
            "gpr_functions": list(self.gpr_functions()),
            "flags": [flag.to_dict() for flag in self.flags],
            "verdicts": [
                self.verdicts[name].to_dict()
                for name in sorted(self.verdicts)
            ],
        }


def _depth_chain(summary: ProgramSummary) -> Tuple[str, ...]:
    """The call chain attaining the certified bound (bounded case)."""
    root = summary.root
    if root is None or summary.functions[root].worst_depth is None:
        return ()
    chain = [root]
    current = summary.functions[root]
    while True:
        best: Optional[FunctionSummary] = None
        best_total = current.local_depth
        for _index, callee, sp_at in current.calls:
            if callee is None or sp_at is None:
                break
            callee_summary = summary.functions[callee]
            if callee_summary.worst_depth is None:
                break
            total = -sp_at + callee_summary.worst_depth
            if total > best_total:
                best_total = total
                best = callee_summary
        if best is None or best.name in chain:
            break
        chain.append(best.name)
        current = best
    return tuple(chain)


def _live_set(summary: ProgramSummary) -> Set[str]:
    """Reachable functions; everything when indirect calls blind us."""
    live = summary.live()
    if summary.graph.unknown_callers & (live or set(summary.functions)):
        return set(summary.functions)
    return live


def certify_program(program: Program, name: str = "program"
                    ) -> ProgramCertificate:
    """Run the whole-program certifier over one assembled program."""
    pcfg = build_cfg(program)
    graph = build_call_graph(pcfg)
    summary = summarize_program(pcfg, graph)
    live = _live_set(summary)

    depth_bound, depth_reason = summary.program_depth()
    certificate = ProgramCertificate(
        name=name,
        function_count=len(pcfg.functions),
        instruction_count=len(program),
        depth_bound=depth_bound,
        depth_reason=depth_reason,
        depth_chain=_depth_chain(summary),
        live=tuple(sorted(live)),
        summary=summary,
    )

    def path_to(function: str) -> Tuple[str, ...]:
        path = graph.call_path(function)
        return tuple(path) if path else ()

    flags: List[SafetyFlag] = certificate.flags

    # --- structural soundness ---------------------------------------------
    for anomaly in pcfg.anomalies:
        if anomaly.kind == "indirect-call":
            continue  # handled as unknown-callee below
        if anomaly.kind in FATAL_ANOMALIES and anomaly.function in live:
            flags.append(SafetyFlag(
                "structural", anomaly.function, anomaly.index,
                anomaly.message, path_to(anomaly.function),
            ))

    # --- LIFO discipline ---------------------------------------------------
    for function_name in sorted(live):
        function_summary = summary.functions[function_name]
        for diagnostic in function_summary.diagnostics:
            if diagnostic.severity.name != "ERROR":
                continue
            flags.append(SafetyFlag(
                "lifo-violation", function_name, diagnostic.index,
                diagnostic.message, path_to(function_name),
            ))

    # --- unclean escapes ---------------------------------------------------
    for function_name in sorted(live):
        function_summary = summary.functions[function_name]
        if not function_summary.has_unclean:
            continue
        offsets = sorted(
            offset for offset, cls in function_summary.slot_classes.items()
            if cls == SLOT_UNCLEAN
        )
        index = (
            function_summary.events_local.unclean[0][0]
            if function_summary.events_local.unclean else -1
        )
        what = (
            f"slot(s) {', '.join(f'{o:+d}' for o in offsets)}"
            if offsets else "a caller stack address"
        )
        flags.append(SafetyFlag(
            "unclean-escape", function_name, index,
            f"{what} escape(s) to non-stack memory; aliases are "
            f"invisible to the stack contract",
            path_to(function_name),
        ))

    # --- depth verdict witnesses ------------------------------------------
    if depth_bound is None:
        if depth_reason == "recursion":
            witness: Tuple[str, ...] = ()
            head = ""
            for function_name in sorted(live & graph.recursive):
                cycle = graph.recursion_cycle(function_name)
                if cycle:
                    prefix = path_to(function_name)
                    witness = tuple(prefix[:-1]) + tuple(cycle)
                    head = function_name
                    break
            flags.append(SafetyFlag(
                "unbounded-depth", head or (summary.root or "?"), -1,
                "recursive call cycle admits no static stack bound",
                witness,
            ))
            if witness and not certificate.depth_chain:
                certificate.depth_chain = witness
        elif depth_reason == "indirect-call":
            for function_name in sorted(graph.unknown_callers & live):
                for site in graph.sites[function_name]:
                    if site.callee is None:
                        flags.append(SafetyFlag(
                            "unknown-callee", function_name, site.index,
                            "indirect call: callee unknown, stack "
                            "depth cannot be bounded",
                            path_to(function_name),
                        ))
                        break
        elif depth_reason and summary.functions:
            head = summary.root or "?"
            flags.append(SafetyFlag(
                "untracked-sp", head, -1,
                f"stack depth unknown ({depth_reason})",
                path_to(head) if summary.root else (),
            ))

    # --- per-function verdicts --------------------------------------------
    for function_name, function_summary in summary.functions.items():
        if function_summary.error_count:
            integrity = "violated"
        elif (
            not function_summary.sp_tracked
            or function_summary.has_unclean
        ):
            integrity = "unknown"
        else:
            integrity = "ok"
        confidentiality = (
            "leaky" if function_summary.first_reads else "ok"
        )
        certificate.verdicts[function_name] = FunctionVerdict(
            name=function_name,
            live=function_name in live,
            recursive=function_summary.recursive,
            local_depth=function_summary.local_depth,
            worst_depth=function_summary.worst_depth,
            slot_classes=dict(function_summary.slot_classes),
            gpr_access=function_summary.gpr_access,
            receives_stack=bool(function_summary.receives_stack),
            integrity=integrity,
            confidentiality=confidentiality,
            clobbered=len(function_summary.clobbered),
        )

    return certificate


def render_certificates(certificates: Sequence[ProgramCertificate],
                        verbose: bool = False) -> str:
    """Render several certificates plus a suite-level footer."""
    blocks = [
        certificate.render_text(verbose=verbose)
        for certificate in certificates
    ]
    hard = sum(len(c.hard_flags) for c in certificates)
    soft = sum(len(c.flags) for c in certificates) - hard
    failed = [c.name for c in certificates if not c.ok]
    footer = (
        f"{len(certificates)} program(s) certified: {hard} hard / "
        f"{soft} soft flag(s)"
    )
    if failed:
        footer += " — FLAGGED: " + ", ".join(failed)
    blocks.append(footer)
    return "\n\n".join(blocks)


__all__ = [
    "HARD_FLAGS",
    "FunctionVerdict",
    "ProgramCertificate",
    "SafetyFlag",
    "certify_program",
    "render_certificates",
]
