"""The data-flow engine (Table 1, "DFE").

A generic engine for gen/kill data-flow problems with the optimizations the
paper lists: set-based transfer functions, *basic-block granularity* (block
summaries are composed once, instruction-level results materialized on
demand), a *worklist* algorithm, and *priority ordering* (reverse postorder
for forward problems, postorder for backward ones, which approximates
loop-based priority).

Canned analyses built on the engine: liveness and reaching definitions —
the two consumed by the scheduler, COOS, and the parallelizers.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable

from ..analysis.cfg import postorder, reverse_postorder
from ..ir.instructions import Instruction, Phi
from ..ir.module import BasicBlock, Function


class DataFlowProblem:
    """Specification of a gen/kill data-flow problem."""

    def __init__(
        self,
        direction: str,
        gen: Callable[[Instruction], set[Hashable]],
        kill: Callable[[Instruction], set[Hashable]],
        meet: str = "union",
        boundary: set[Hashable] | None = None,
    ):
        if direction not in ("forward", "backward"):
            raise ValueError(f"bad direction {direction!r}")
        if meet not in ("union", "intersection"):
            raise ValueError(f"bad meet {meet!r}")
        self.direction = direction
        self.gen = gen
        self.kill = kill
        self.meet = meet
        self.boundary = boundary or set()


class DataFlowResult:
    """IN/OUT sets per basic block, with on-demand per-instruction slicing."""

    def __init__(self, problem: DataFlowProblem):
        self.problem = problem
        self.block_in: dict[int, set[Hashable]] = {}
        self.block_out: dict[int, set[Hashable]] = {}

    def in_of_block(self, block: BasicBlock) -> set[Hashable]:
        return self.block_in.get(id(block), set())

    def out_of_block(self, block: BasicBlock) -> set[Hashable]:
        return self.block_out.get(id(block), set())

    def in_of(self, inst: Instruction) -> set[Hashable]:
        """The data-flow facts holding just before ``inst``."""
        block = inst.parent
        assert block is not None
        if self.problem.direction == "forward":
            state = set(self.in_of_block(block))
            for current in block.instructions:
                if current is inst:
                    return state
                state = (state - self.problem.kill(current)) | self.problem.gen(current)
            raise ValueError("instruction not in its block")
        state = set(self.out_of_block(block))
        for current in reversed(block.instructions):
            state = (state - self.problem.kill(current)) | self.problem.gen(current)
            if current is inst:
                return state
        raise ValueError("instruction not in its block")

    def out_of(self, inst: Instruction) -> set[Hashable]:
        """The data-flow facts holding just after ``inst``."""
        block = inst.parent
        assert block is not None
        if self.problem.direction == "forward":
            state = set(self.in_of_block(block))
            for current in block.instructions:
                state = (state - self.problem.kill(current)) | self.problem.gen(current)
                if current is inst:
                    return state
            raise ValueError("instruction not in its block")
        state = set(self.out_of_block(block))
        for current in reversed(block.instructions):
            if current is inst:
                return state
            state = (state - self.problem.kill(current)) | self.problem.gen(current)
        raise ValueError("instruction not in its block")


class DataFlowEngine:
    """The worklist solver."""

    def run(self, fn: Function, problem: DataFlowProblem) -> DataFlowResult:
        result = DataFlowResult(problem)
        # Block-level gen/kill summaries (the basic-block optimization).
        block_gen: dict[int, set[Hashable]] = {}
        block_kill: dict[int, set[Hashable]] = {}
        for block in fn.blocks:
            gen: set[Hashable] = set()
            kill: set[Hashable] = set()
            instructions = (
                block.instructions
                if problem.direction == "forward"
                else list(reversed(block.instructions))
            )
            for inst in instructions:
                inst_gen = problem.gen(inst)
                inst_kill = problem.kill(inst)
                gen = (gen - inst_kill) | inst_gen
                kill = (kill - inst_gen) | inst_kill
            block_gen[id(block)] = gen
            block_kill[id(block)] = kill

        if problem.direction == "forward":
            order = reverse_postorder(fn)
            inputs_of = lambda b: b.predecessors()
        else:
            order = postorder(fn)
            inputs_of = lambda b: b.successors()
        position = {id(b): i for i, b in enumerate(order)}

        # Intersection problems must start from TOP (the universe of
        # facts), or loops would erase facts against the uninitialized
        # back edge.  Union problems start from bottom (the empty set).
        if problem.meet == "intersection":
            universe: set[Hashable] = set(problem.boundary)
            for gen in block_gen.values():
                universe |= gen
            initial = universe
        else:
            initial = set()
        for block in fn.blocks:
            result.block_in[id(block)] = set(initial)
            result.block_out[id(block)] = set(initial)

        worklist: deque[BasicBlock] = deque(order)
        queued = {id(b) for b in order}
        while worklist:
            block = worklist.popleft()
            queued.discard(id(block))
            inputs = inputs_of(block)
            if problem.direction == "forward":
                state = self._meet(problem, inputs, result.block_out, block)
                result.block_in[id(block)] = state
                new_out = (state - block_kill[id(block)]) | block_gen[id(block)]
                if new_out != result.block_out[id(block)]:
                    result.block_out[id(block)] = new_out
                    self._enqueue(block.successors(), worklist, queued, position)
            else:
                state = self._meet(problem, inputs, result.block_in, block)
                result.block_out[id(block)] = state
                new_in = (state - block_kill[id(block)]) | block_gen[id(block)]
                if new_in != result.block_in[id(block)]:
                    result.block_in[id(block)] = new_in
                    self._enqueue(block.predecessors(), worklist, queued, position)
        return result

    def _meet(
        self,
        problem: DataFlowProblem,
        inputs: list[BasicBlock],
        source: dict[int, set[Hashable]],
        block: BasicBlock,
    ) -> set[Hashable]:
        if not inputs:
            return set(problem.boundary)
        sets = [source.get(id(b), set()) for b in inputs]
        if problem.meet == "union":
            merged: set[Hashable] = set()
            for s in sets:
                merged |= s
            return merged
        merged = set(sets[0])
        for s in sets[1:]:
            merged &= s
        return merged

    @staticmethod
    def _enqueue(blocks, worklist: deque, queued: set[int], position: dict[int, int]):
        for block in blocks:
            if id(block) not in queued:
                queued.add(id(block))
                worklist.append(block)


# --------------------------------------------------------------------------- canned analyses
def liveness(fn: Function) -> DataFlowResult:
    """Backward liveness of SSA values (ids of the live instructions)."""

    def gen(inst: Instruction) -> set[Hashable]:
        used: set[Hashable] = set()
        for operand in inst.operands:
            if isinstance(operand, Instruction):
                used.add(id(operand))
        return used

    def kill(inst: Instruction) -> set[Hashable]:
        return {id(inst)} if not inst.type.is_void() else set()

    return DataFlowEngine().run(fn, DataFlowProblem("backward", gen, kill))


def reaching_definitions(fn: Function) -> DataFlowResult:
    """Forward reaching definitions of memory stores, keyed by pointer root.

    Two stores kill each other when they provably write the same location
    (same pointer value) — a simple but useful memory data-flow.
    """
    from ..ir.instructions import Store

    stores_by_pointer: dict[int, set[Hashable]] = {}
    for inst in fn.instructions():
        if isinstance(inst, Store):
            stores_by_pointer.setdefault(id(inst.pointer), set()).add(id(inst))

    def gen(inst: Instruction) -> set[Hashable]:
        return {id(inst)} if isinstance(inst, Store) else set()

    def kill(inst: Instruction) -> set[Hashable]:
        if isinstance(inst, Store):
            others = stores_by_pointer.get(id(inst.pointer), set())
            return others - {id(inst)}
        return set()

    return DataFlowEngine().run(fn, DataFlowProblem("forward", gen, kill))
