"""The scheduler abstraction (Table 1, "SCD").

Moves instructions within and between basic blocks while preserving the
original semantics, with legality decided by the PDG: an instruction may
move only where all its dependences (register, memory, and control) remain
satisfied.  The abstraction is a hierarchy:

* :class:`Scheduler` — the generic mover with PDG-checked legality;
* :class:`BasicBlockScheduler` — reorders within one block (dependence-
  respecting list scheduling);
* :class:`LoopScheduler` — loop-aware specializations, e.g. shrinking a
  loop header by sinking instructions the header does not need (HELIX uses
  this to shorten sequential segments).
"""

from __future__ import annotations

from ..analysis.dominators import DominatorTree
from ..analysis.loopinfo import NaturalLoop
from ..ir.instructions import Instruction, Phi, TerminatorInst
from ..ir.module import BasicBlock, Function
from .pdg import PDG


class Scheduler:
    """Generic PDG-backed instruction mover."""

    def __init__(self, fn: Function, pdg: PDG):
        self.fn = fn
        self.pdg = pdg

    # -- legality -----------------------------------------------------------------
    def can_move_to_end(self, inst: Instruction, target: BasicBlock) -> bool:
        """May ``inst`` move to the end of ``target`` (before its terminator)?"""
        if isinstance(inst, (Phi, TerminatorInst)):
            return False
        dom = DominatorTree(self.fn)
        # Every producer must dominate the new position.
        for edge in self.pdg.dependences_of(inst):
            producer = edge.src.value
            if not isinstance(producer, Instruction):
                continue
            if producer is inst:
                continue
            if edge.is_control():
                # Control producers must still control the target equally;
                # conservatively require the producer to dominate the target.
                if not dom.dominates_block(producer.parent, target):
                    return False
                continue
            if producer.parent is target:
                continue  # stays before the end position
            if not dom.dominates_block(producer.parent, target):
                return False
        # Every consumer must still be dominated by the new position.
        for edge in self.pdg.dependents_of(inst):
            consumer = edge.dst.value
            if not isinstance(consumer, Instruction) or consumer is inst:
                continue
            if consumer.parent is target:
                # Moving to the end of the consumer's block would put the
                # producer after it.
                if not isinstance(consumer, TerminatorInst):
                    return False
                continue
            if not dom.dominates_block(target, consumer.parent):
                return False
        return True

    def move_to_end(self, inst: Instruction, target: BasicBlock) -> bool:
        """Move when legal; returns whether the move happened."""
        if not self.can_move_to_end(inst, target):
            return False
        inst.move_to_end(target)
        return True


class BasicBlockScheduler(Scheduler):
    """Reorders the instructions of one block respecting dependences."""

    def schedule_block(
        self, block: BasicBlock, priority=None
    ) -> bool:
        """Topologically re-sort the block's body.

        ``priority(inst) -> int`` breaks ties; lower runs earlier.  Returns
        True when the order changed.  Phis stay at the top and the
        terminator at the bottom; memory operations keep their relative
        order unless the PDG proves independence.
        """
        body = [
            i
            for i in block.instructions
            if not isinstance(i, (Phi, TerminatorInst))
        ]
        if len(body) < 2:
            return False
        position = {id(inst): index for index, inst in enumerate(body)}
        successors: dict[int, list[Instruction]] = {id(i): [] for i in body}
        in_degree: dict[int, int] = {id(i): 0 for i in body}
        for inst in body:
            for edge in self.pdg.dependents_of(inst):
                consumer = edge.dst.value
                if id(consumer) in position and consumer is not inst:
                    successors[id(inst)].append(consumer)
                    in_degree[id(consumer)] += 1
        if priority is None:
            priority = lambda inst: position[id(inst)]
        ready = sorted(
            (i for i in body if in_degree[id(i)] == 0),
            key=lambda i: (priority(i), position[id(i)]),
        )
        order: list[Instruction] = []
        while ready:
            inst = ready.pop(0)
            order.append(inst)
            for succ in successors[id(inst)]:
                in_degree[id(succ)] -= 1
                if in_degree[id(succ)] == 0:
                    ready.append(succ)
            ready.sort(key=lambda i: (priority(i), position[id(i)]))
        assert len(order) == len(body), "dependence cycle inside one block"
        if order == body:
            return False
        phis = [i for i in block.instructions if isinstance(i, Phi)]
        terminator = [i for i in block.instructions if isinstance(i, TerminatorInst)]
        block.instructions = phis + order + terminator
        return True


class LoopScheduler(Scheduler):
    """Loop-aware scheduling: shrink headers, sink work into the body."""

    def shrink_header(self, loop: NaturalLoop) -> int:
        """Sink header instructions the header itself does not need.

        An instruction can leave the header when the header's phis and
        terminator do not (transitively) depend on it and its consumers all
        sit in blocks dominated by the sink target.  HELIX uses this to
        minimize the code that must run in the iteration-ordering critical
        path.  Returns the number of instructions moved.
        """
        header = loop.header
        body_successors = [
            s for s in header.successors() if loop.contains_block(s)
        ]
        if len(body_successors) != 1:
            return 0
        target = body_successors[0]
        if len(target.predecessors()) != 1:
            return 0  # the target must be reached only from the header
        moved = 0
        needed = self._needed_by_header(header)
        # Sink consumers before producers: iterate bottom-up to a fixpoint.
        progress = True
        while progress:
            progress = False
            for inst in reversed(list(header.instructions)):
                if isinstance(inst, (Phi, TerminatorInst)):
                    continue
                if id(inst) in needed:
                    continue
                if self._sink(inst, target):
                    moved += 1
                    progress = True
        return moved

    def _needed_by_header(self, header: BasicBlock) -> set[int]:
        """ids of instructions the header's control decision depends on."""
        needed: set[int] = set()
        worklist: list[Instruction] = []
        terminator = header.terminator
        if terminator is not None:
            worklist.append(terminator)
        for phi in header.phis():
            worklist.append(phi)
        while worklist:
            inst = worklist.pop()
            for operand in inst.operands:
                if (
                    isinstance(operand, Instruction)
                    and operand.parent is header
                    and id(operand) not in needed
                ):
                    needed.add(id(operand))
                    worklist.append(operand)
        return needed

    def _sink(self, inst: Instruction, target: BasicBlock) -> bool:
        # Sinking moves the instruction *down*; memory writes may not jump
        # over other memory operations, which the PDG edges encode.
        for edge in self.pdg.dependents_of(inst):
            consumer = edge.dst.value
            if isinstance(consumer, Instruction) and consumer.parent is inst.parent:
                if not isinstance(consumer, TerminatorInst):
                    return False  # a same-block consumer would be orphaned
        if not self.can_move_to_end(inst, target):
            return False
        # Position at the top of the target instead of the end so the
        # original intra-body order is preserved.
        inst.move_before(target.first_non_phi())
        return True
