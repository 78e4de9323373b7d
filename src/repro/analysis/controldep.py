"""Control-dependence analysis (Ferrante–Ottenstein–Warren).

Block ``B`` is control dependent on edge ``(U -> V)`` when ``V`` does not
post-dominate ``U`` but ``B`` post-dominates ``V`` (one branch direction of
``U`` decides whether ``B`` runs).  The PDG's control edges come straight
from this analysis: every instruction of ``B`` is control dependent on the
terminator of ``U``.
"""

from __future__ import annotations

from collections import defaultdict

from ..ir.instructions import TerminatorInst
from ..ir.module import BasicBlock, Function
from .dominators import PostDominatorTree


class ControlDependence:
    """Block-level control-dependence relation for one function."""

    def __init__(self, fn: Function, pdt: PostDominatorTree | None = None):
        self.fn = fn
        self.pdt = pdt or PostDominatorTree(fn)
        #: id(block) -> blocks whose terminators control it.
        self._controllers: dict[int, list[BasicBlock]] = defaultdict(list)
        self._build()

    def _build(self) -> None:
        for u in self.fn.blocks:
            successors = u.successors()
            if len(successors) < 2:
                continue  # only branching blocks create control dependence
            for v in successors:
                if self.pdt.post_dominates(v, u):
                    continue
                # Walk from v up the post-dominator tree, stopping at
                # ipdom(u); every block on the way is controlled by u.
                stop = self.pdt.ipdom.get(id(u))
                node: BasicBlock | None = v
                while node is not None and node is not stop and node is not self.pdt.sink:
                    self._add(u, node)
                    parent = self.pdt.ipdom.get(id(node))
                    if parent is node:
                        break
                    node = parent

    def _add(self, controller: BasicBlock, controlled: BasicBlock) -> None:
        if controller not in self._controllers[id(controlled)]:
            self._controllers[id(controlled)].append(controller)

    # -- queries -----------------------------------------------------------------
    def controllers_of(self, block: BasicBlock) -> list[BasicBlock]:
        """Blocks whose branch decides whether ``block`` executes."""
        return self._controllers.get(id(block), [])

    def controlling_terminators(self, block: BasicBlock) -> list[TerminatorInst]:
        result = []
        for controller in self.controllers_of(block):
            term = controller.terminator
            if term is not None:
                result.append(term)
        return result

    def control_equivalent(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True when the two blocks execute under identical branch decisions.

        This is NOELLE's *control equivalence* helper abstraction
        (Section 2.2, "Other abstractions").
        """
        mine = {id(c) for c in self.controllers_of(a)}
        theirs = {id(c) for c in self.controllers_of(b)}
        return mine == theirs
