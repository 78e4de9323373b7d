"""The invariant abstraction (Table 1, "INV") — Algorithm 2 of the paper.

NOELLE decides loop invariance with one recursive rule over the PDG: an
instruction is invariant iff everything it depends on (register, memory,
*and* control dependences alike) is either outside the loop or itself
invariant.  The cycle-breaking stack makes mutually dependent instructions
non-invariant, exactly as in the paper's pseudo-code.

Compare with :mod:`repro.baselines.invariants_llvm`, the reproduction of
Algorithm 1: LLVM's low-level implementation special-cases loads, stores,
and calls against alias analysis and dominators, and is both longer and
weaker — the gap Figure 4 measures.
"""

from __future__ import annotations

from ..analysis.loopinfo import NaturalLoop
from ..ir.instructions import Call, Instruction, Phi, TerminatorInst
from ..perf import STATS
from .pdg import LoopDG


class InvariantManager:
    """Per-loop invariant queries powered by the PDG (Algorithm 2)."""

    def __init__(self, loop: NaturalLoop, dependence_graph: LoopDG):
        self.loop = loop
        # The loop dependence graph (the owning ``Loop``'s one LDG), not
        # the program PDG: it adds the *reverse* loop-carried memory
        # edges the program-order PDG omits (a later store feeding an
        # earlier load of the next iteration); invariance must see them.
        self._dg = dependence_graph
        self._cache: dict[int, bool] = {}

    def is_invariant(self, inst: Instruction) -> bool:
        """Is ``inst`` a loop invariant of this loop?"""
        if not self.loop.contains(inst):
            return False
        return self._is_invariant(inst, set())

    def invariants(self) -> list[Instruction]:
        """All invariant instructions of the loop, in program order."""
        with STATS.timer("loop.invariants"):
            return [i for i in self.loop.instructions() if self.is_invariant(i)]

    # -- Algorithm 2 --------------------------------------------------------------
    def _is_invariant(self, inst: Instruction, stack: set[int]) -> bool:
        cached = self._cache.get(id(inst))
        if cached is not None:
            return cached
        if id(inst) in stack:
            return False  # dependence cycle: cannot be invariant
        if not self._may_be_invariant(inst):
            self._cache[id(inst)] = False
            return False
        stack.add(id(inst))
        result = True
        for edge in self._dg.dependences_of(inst):
            if edge.is_control():
                # Whether the instruction *executes* is the hoister's
                # speculation question, not an invariance question: every
                # loop-body instruction is control dependent on the exit
                # branch, so counting control edges would reject everything.
                continue
            producer = edge.src.value
            if not self.loop.contains(producer):
                continue
            if not self._is_invariant(producer, stack):
                result = False
                break
        stack.discard(id(inst))
        self._cache[id(inst)] = result
        return result

    @staticmethod
    def _may_be_invariant(inst: Instruction) -> bool:
        """Structural exclusions: control flow and phis are never invariant,
        and calls with side effects must execute every iteration."""
        if isinstance(inst, (TerminatorInst, Phi)):
            return False
        if isinstance(inst, Call):
            # A call qualifies only when provably pure; pure calls have no
            # memory effects despite the conservative Call classification.
            callee = inst.called_function()
            return callee is not None and "pure" in callee.attributes
        if inst.may_write_memory():
            return False
        return True
