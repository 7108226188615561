"""Control-flow graph reconstruction for assembled :class:`Program`\\ s.

The MiniC toolchain emits a flat text segment; nothing in the
:class:`~repro.isa.instructions.Program` container records function
boundaries or control structure.  This module recovers both:

* **function partitioning** — function entry points are the program's
  entry label, every ``bsr`` target, and every plain (non-``$``) label
  no branch jumps to, so uncalled functions still partition correctly;
  the text segment is split at those indices (functions are emitted
  contiguously, so each function spans from its entry to the next one);
* **basic blocks** — classic leader analysis inside each function:
  the function entry, every branch target, and every instruction
  following a control transfer start a block;
* **edges** — conditional branches get a taken and a fall-through
  edge, ``br`` a single taken edge, ``ret``/``halt`` end the function
  (exit blocks), and calls (``bsr``/``jsr``) fall through — a call
  returns to the next instruction, so it does not terminate a block's
  straight-line execution but is recorded as a call site;
* **call graph** — direct ``bsr`` edges between functions.  Indirect
  transfers (``jsr``/``jmp``) have no static target; they are recorded
  as anomalies so downstream passes know the graph is incomplete.

Anything structurally suspicious found during construction — a branch
that leaves its function, an indirect jump, code that falls off the
end of a function — is collected in :attr:`ProgramCFG.anomalies` for
the lint driver to report rather than raised, so a malformed program
can still be analyzed as far as possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.isa.instructions import Instruction, Program


@dataclass
class CFGAnomaly:
    """A structural oddity met while building the graph."""

    kind: str  # "escaping-branch" | "indirect-jump" | "indirect-call" | "fallthrough-exit"
    function: str
    index: int
    message: str


#: Anomaly kinds that leave a function's edges unreconstructed, so its
#: graph (and every fact derived from it) is incomplete.
FATAL_ANOMALIES = frozenset({
    "escaping-branch", "indirect-jump", "fallthrough-exit",
})


@dataclass
class BasicBlock:
    """A maximal straight-line run of instructions.

    ``start``/``end`` are program-wide instruction indices
    (half-open).  Successor/predecessor lists hold block ids local to
    the owning :class:`FunctionCFG`.
    """

    id: int
    start: int
    end: int
    successors: List[int] = field(default_factory=list)
    predecessors: List[int] = field(default_factory=list)

    def indices(self) -> range:
        return range(self.start, self.end)

    def __len__(self) -> int:
        return self.end - self.start


@dataclass
class FunctionCFG:
    """The control-flow graph of one function."""

    name: str
    start: int
    end: int
    program: Program
    blocks: List[BasicBlock] = field(default_factory=list)
    #: indices of ``bsr``/``jsr`` call sites inside this function
    call_sites: List[int] = field(default_factory=list)

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[0]

    def exit_blocks(self) -> List[BasicBlock]:
        """Blocks with no intra-function successors (ret/halt/jmp)."""
        return [block for block in self.blocks if not block.successors]

    def instruction(self, index: int) -> Instruction:
        return self.program.instructions[index]

    def block_at(self, index: int) -> BasicBlock:
        """The block containing program-wide instruction ``index``."""
        for block in self.blocks:
            if block.start <= index < block.end:
                return block
        raise KeyError(f"index {index} outside function {self.name!r}")

    def reverse_postorder(self) -> List[BasicBlock]:
        """Blocks in reverse post-order from the entry.

        Unreachable blocks are appended after the reachable ones so
        every block is visited exactly once by dataflow solvers.
        """
        seen: Set[int] = set()
        order: List[int] = []

        def visit(block_id: int) -> None:
            # Iterative DFS; generated functions can be deep but the
            # block graph is small, so recursion depth is the only risk.
            stack: List[Tuple[int, Iterator[int]]] = []
            seen.add(block_id)
            stack.append((block_id, iter(self.blocks[block_id].successors)))
            while stack:
                current, successors = stack[-1]
                advanced = False
                for successor in successors:
                    if successor not in seen:
                        seen.add(successor)
                        stack.append(
                            (successor, iter(self.blocks[successor].successors))
                        )
                        advanced = True
                        break
                if not advanced:
                    order.append(current)
                    stack.pop()

        visit(0)
        postorder = list(reversed(order))
        unreachable = [b.id for b in self.blocks if b.id not in seen]
        return [self.blocks[i] for i in postorder + unreachable]

    def reachable_ids(self) -> Set[int]:
        seen: Set[int] = {0}
        work = [0]
        while work:
            for successor in self.blocks[work.pop()].successors:
                if successor not in seen:
                    seen.add(successor)
                    work.append(successor)
        return seen


@dataclass
class ProgramCFG:
    """CFGs for every function plus the direct call graph."""

    program: Program
    functions: Dict[str, FunctionCFG] = field(default_factory=dict)
    #: caller name -> set of callee names (direct ``bsr`` edges only)
    call_graph: Dict[str, Set[str]] = field(default_factory=dict)
    anomalies: List[CFGAnomaly] = field(default_factory=list)

    def function_at(self, index: int) -> Optional[FunctionCFG]:
        for function in self.functions.values():
            if function.start <= index < function.end:
                return function
        return None


def _function_entries(program: Program) -> Dict[int, str]:
    """Map function entry index -> function name.

    Entries are the program entry label, every direct call target, and
    every *plain* text label (no ``$`` — the compiler reserves ``$``
    for internal labels) that no branch jumps to: an uncalled function
    still partitions as its own function instead of being absorbed as
    unreachable code into its predecessor.  When several labels alias
    an index, a plain label wins over internal ones.
    """
    call_targets: Set[int] = set()
    branch_targets: Set[int] = set()
    for instruction in program.instructions:
        if instruction.target_index is None:
            continue
        if instruction.op == "bsr":
            call_targets.add(instruction.target_index)
        else:
            branch_targets.add(instruction.target_index)

    entry_index = program.labels.get(program.entry, 0)
    indices = set(call_targets) | {entry_index}
    for label, index in program.labels.items():
        if "$" not in label and index not in branch_targets:
            indices.add(index)

    labels_at: Dict[int, List[str]] = {}
    for label, index in program.labels.items():
        labels_at.setdefault(index, []).append(label)

    entries: Dict[int, str] = {}
    for index in indices:
        names = sorted(labels_at.get(index, []))
        # Prefer non-internal labels ("$" marks compiler-generated ones).
        plain = [name for name in names if "$" not in name]
        entries[index] = (plain or names or [f"func_{index}"])[0]
    return entries


def build_cfg(program: Program) -> ProgramCFG:
    """Reconstruct per-function CFGs and the call graph of ``program``."""
    cfg = ProgramCFG(program=program)
    if not program.instructions:
        return cfg

    entries = _function_entries(program)
    starts = sorted(entries)
    bounds = {
        start: (starts[i + 1] if i + 1 < len(starts) else len(program))
        for i, start in enumerate(starts)
    }
    # Instructions before the first entry belong to no function; the
    # assembler only produces them for hand-written sources.
    if starts[0] != 0:
        entries[0] = "__prelude"
        bounds[0] = starts[0]
        starts.insert(0, 0)

    index_to_name: Dict[int, str] = {}
    for start in starts:
        function = _build_function(
            program, entries[start], start, bounds[start], cfg.anomalies
        )
        cfg.functions[function.name] = function
        index_to_name[start] = function.name

    for function in cfg.functions.values():
        callees = cfg.call_graph.setdefault(function.name, set())
        for site in function.call_sites:
            instruction = program.instructions[site]
            if instruction.op == "bsr" and instruction.target_index is not None:
                callees.add(index_to_name[instruction.target_index])
    return cfg


def _terminates_block(instruction: Instruction) -> bool:
    """True when control does not fall through to the next instruction."""
    if instruction.op in ("ret", "halt", "jmp", "br"):
        return True
    return instruction.is_conditional


def _build_function(
    program: Program,
    name: str,
    start: int,
    end: int,
    anomalies: List[CFGAnomaly],
) -> FunctionCFG:
    function = FunctionCFG(name=name, start=start, end=end, program=program)
    instructions = program.instructions

    leaders: Set[int] = {start}
    for index in range(start, end):
        instruction = instructions[index]
        if instruction.op in ("bsr", "jsr"):
            function.call_sites.append(index)
        target = instruction.target_index
        if target is not None and instruction.op != "bsr":
            if start <= target < end:
                leaders.add(target)
            else:
                anomalies.append(CFGAnomaly(
                    "escaping-branch", name, index,
                    f"branch target leaves function {name!r}",
                ))
        if _terminates_block(instruction) and index + 1 < end:
            leaders.add(index + 1)

    ordered = sorted(leaders)
    id_of: Dict[int, int] = {}
    for block_id, block_start in enumerate(ordered):
        block_end = ordered[block_id + 1] if block_id + 1 < len(ordered) else end
        function.blocks.append(BasicBlock(block_id, block_start, block_end))
        id_of[block_start] = block_id

    for block in function.blocks:
        last = instructions[block.end - 1]
        successors: List[int] = []
        target = last.target_index
        if last.is_conditional:
            if target is not None and start <= target < end:
                successors.append(id_of[target])
            if block.end < end:
                successors.append(id_of[block.end])
        elif last.op == "br":
            if target is not None and start <= target < end:
                successors.append(id_of[target])
        elif last.op in ("ret", "halt"):
            pass  # function exit
        elif last.op == "jmp":
            anomalies.append(CFGAnomaly(
                "indirect-jump", name, block.end - 1,
                "indirect jump: control-flow graph is incomplete",
            ))
        else:  # straight-line fall-through (includes calls)
            if block.end < end:
                successors.append(id_of[block.end])
            else:
                anomalies.append(CFGAnomaly(
                    "fallthrough-exit", name, block.end - 1,
                    f"control falls off the end of function {name!r}",
                ))
        block.successors = successors

    for block in function.blocks:
        for successor in block.successors:
            function.blocks[successor].predecessors.append(block.id)

    for site in function.call_sites:
        if instructions[site].op == "jsr":
            anomalies.append(CFGAnomaly(
                "indirect-call", name, site,
                "indirect call: callee unknown to the call graph",
            ))
    return function
