"""A small generic dataflow framework over :class:`FunctionCFG`.

Every stack-discipline pass in :mod:`repro.analysis.stackcheck` is an
instance of the same fixpoint computation: propagate abstract facts
along control-flow edges, merging at joins, until nothing changes.
This module provides that computation once, in both directions, so a
pass only supplies its lattice (``top``/``boundary``/``meet``) and its
block transfer function.

The solver is a classic worklist algorithm seeded in reverse
post-order (post-order for backward problems), which reaches the
fixpoint in a handful of sweeps for the reducible CFGs the MiniC
compiler emits.  Facts are compared with ``==``; transfer functions
must therefore return values with structural equality (frozensets,
tuples, ints, dataclasses with ``eq=True``...), never mutate their
input, and be monotone with respect to ``meet``.

Unreachable blocks keep the ``top`` fact, which every sensible lattice
treats as "no information"; reporting walks should skip them (see
:meth:`FunctionCFG.reachable_ids`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Generic, List, TypeVar

from repro.analysis.cfg import BasicBlock, FunctionCFG

Fact = TypeVar("Fact")

FORWARD = "forward"
BACKWARD = "backward"


class DataflowProblem(Generic[Fact]):
    """One dataflow analysis: lattice plus transfer function.

    Subclasses define:

    * :attr:`direction` — ``FORWARD`` or ``BACKWARD``;
    * :meth:`boundary` — the fact at the function entry (forward) or
      at every exit (backward);
    * :meth:`top` — the optimistic initial fact for unvisited blocks;
    * :meth:`meet` — the confluence operator;
    * :meth:`transfer` — the effect of one whole basic block.
    """

    direction: str = FORWARD

    def boundary(self, cfg: FunctionCFG) -> Fact:
        raise NotImplementedError

    def top(self, cfg: FunctionCFG) -> Fact:
        raise NotImplementedError

    def meet(self, left: Fact, right: Fact) -> Fact:
        raise NotImplementedError

    def transfer(self, cfg: FunctionCFG, block: BasicBlock, fact: Fact) -> Fact:
        raise NotImplementedError


@dataclass
class DataflowResult(Generic[Fact]):
    """Per-block input/output facts at the fixpoint.

    ``inputs[b]`` is the fact *entering* block ``b`` in the problem's
    direction of travel: for a backward problem it is the fact at the
    block's end (its live-out, say) and ``outputs[b]`` the fact at its
    start.
    """

    inputs: Dict[int, Fact]
    outputs: Dict[int, Fact]
    iterations: int


def solve(cfg: FunctionCFG, problem: DataflowProblem[Fact]) -> DataflowResult[Fact]:
    """Run ``problem`` over ``cfg`` to its (unique) fixpoint."""
    forward = problem.direction == FORWARD
    order = cfg.reverse_postorder()
    if not forward:
        order = list(reversed(order))

    def edges_in(block: BasicBlock) -> List[int]:
        return block.predecessors if forward else block.successors

    boundary_ids = (
        {cfg.entry.id}
        if forward
        else {block.id for block in cfg.exit_blocks()} or {cfg.entry.id}
    )

    inputs: Dict[int, Fact] = {}
    outputs: Dict[int, Fact] = {}
    for block in cfg.blocks:
        inputs[block.id] = problem.top(cfg)
        outputs[block.id] = problem.top(cfg)

    in_worklist = {block.id for block in order}
    worklist = [block.id for block in order]
    iterations = 0
    position = 0
    while position < len(worklist):
        block_id = worklist[position]
        position += 1
        if block_id not in in_worklist:
            continue
        in_worklist.discard(block_id)
        iterations += 1
        block = cfg.blocks[block_id]

        fact = problem.boundary(cfg) if block_id in boundary_ids else None
        for source in edges_in(block):
            incoming = outputs[source]
            fact = incoming if fact is None else problem.meet(fact, incoming)
        if fact is None:
            fact = problem.top(cfg)
        inputs[block_id] = fact

        new_output = problem.transfer(cfg, block, fact)
        if new_output != outputs[block_id]:
            outputs[block_id] = new_output
            targets = block.successors if forward else block.predecessors
            for target in targets:
                if target not in in_worklist:
                    in_worklist.add(target)
                    worklist.append(target)
    return DataflowResult(inputs=inputs, outputs=outputs, iterations=iterations)


# ---------------------------------------------------------------------------
# A ready-made set lattice: the common case for gen/kill style passes.
# ---------------------------------------------------------------------------

#: Sentinel for the universal set in must-problems (meet = intersection):
#: the top fact of an unvisited block must absorb under intersection.
UNIVERSE = None


class SetProblem(DataflowProblem[FrozenSet]):
    """Gen/kill analysis over frozensets.

    ``may=True`` gives a union meet starting from the empty set (e.g.
    liveness, may-taint); ``may=False`` gives an intersection meet
    starting from the universal set (e.g. definitely-written slots),
    with :data:`UNIVERSE` (``None``) standing in for "everything".
    """

    may: bool = True

    def boundary(self, cfg: FunctionCFG) -> FrozenSet:
        return frozenset()

    def top(self, cfg: FunctionCFG):
        return frozenset() if self.may else UNIVERSE

    def meet(self, left, right):
        if self.may:
            return left | right
        if left is UNIVERSE:
            return right
        if right is UNIVERSE:
            return left
        return left & right

    def transfer(self, cfg, block, fact):
        if fact is UNIVERSE:
            fact = frozenset()
        indices = block.indices()
        if self.direction == BACKWARD:
            indices = reversed(indices)
        value = set(fact)
        for index in indices:
            self.step(cfg, index, value)
        return frozenset(value)

    def step(self, cfg: FunctionCFG, index: int, value: set) -> None:
        """Apply one instruction's gen/kill to ``value`` in place."""
        raise NotImplementedError

