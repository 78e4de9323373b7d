"""Dominator and post-dominator trees (Cooper–Harvey–Kennedy algorithm).

NOELLE re-implements LLVM's dominator abstraction with user-controlled
lifetime (Section 2.2, "Other abstractions"): LLVM function passes free
their analysis memory when moved to another function, causing stale-pointer
bugs in module passes.  These Python objects are plain values — they live
as long as their owner keeps them — which reproduces NOELLE's fix by
construction.  They do *not* auto-invalidate: after mutating a function,
construct a fresh tree.
"""

from __future__ import annotations

from ..ir.module import BasicBlock, Function
from .cfg import postorder


class DominatorTree:
    """Immediate-dominator tree over the blocks of one function."""

    def __init__(self, fn: Function):
        self.fn = fn
        #: id(block) -> immediate dominator block (entry maps to itself).
        self.idom: dict[int, BasicBlock] = {}
        #: id(block) -> children in the dominator tree.
        self.children: dict[int, list[BasicBlock]] = {}
        self._by_id: dict[int, BasicBlock] = {}
        self._rpo_index: dict[int, int] = {}
        self._build()

    # -- construction ------------------------------------------------------------
    def _build(self) -> None:
        order = list(reversed(postorder(self.fn)))  # reverse postorder
        if not order:
            return
        for index, block in enumerate(order):
            self._rpo_index[id(block)] = index
            self._by_id[id(block)] = block
        entry = order[0]
        self.idom[id(entry)] = entry
        changed = True
        while changed:
            changed = False
            for block in order[1:]:
                new_idom: BasicBlock | None = None
                for pred in block.predecessors():
                    if id(pred) not in self.idom:
                        continue  # unreachable or not yet processed
                    if new_idom is None:
                        new_idom = pred
                    else:
                        new_idom = self._intersect(pred, new_idom)
                if new_idom is not None and self.idom.get(id(block)) is not new_idom:
                    self.idom[id(block)] = new_idom
                    changed = True
        for block in order:
            self.children.setdefault(id(block), [])
        for block in order[1:]:
            parent = self.idom[id(block)]
            self.children.setdefault(id(parent), []).append(block)

    def _intersect(self, a: BasicBlock, b: BasicBlock) -> BasicBlock:
        while a is not b:
            while self._rpo_index[id(a)] > self._rpo_index[id(b)]:
                a = self.idom[id(a)]
            while self._rpo_index[id(b)] > self._rpo_index[id(a)]:
                b = self.idom[id(b)]
        return a

    # -- queries ------------------------------------------------------------------
    def immediate_dominator(self, block: BasicBlock) -> BasicBlock | None:
        """The immediate dominator, or None for the entry / unreachable blocks."""
        parent = self.idom.get(id(block))
        if parent is None or parent is block:
            return None
        return parent

    def dominates_block(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True if ``a`` dominates ``b`` (every block dominates itself)."""
        if id(b) not in self.idom:
            return False  # b unreachable: nothing meaningfully dominates it
        node = b
        while True:
            if node is a:
                return True
            parent = self.idom.get(id(node))
            if parent is None or parent is node:
                return False
            node = parent

    def dominates(self, a, b) -> bool:
        """Instruction-level dominance: does instruction ``a`` dominate ``b``?"""
        if a.parent is b.parent:
            block = a.parent
            return block.instructions.index(a) < block.instructions.index(b)
        return self.dominates_block(a.parent, b.parent)

    def dominated_blocks(self, block: BasicBlock) -> list[BasicBlock]:
        """All blocks dominated by ``block`` (inclusive), in preorder."""
        result: list[BasicBlock] = []
        stack = [block]
        while stack:
            node = stack.pop()
            result.append(node)
            stack.extend(self.children.get(id(node), []))
        return result

    def dominance_frontier(self) -> dict[int, set[int]]:
        """id(block) -> ids of its dominance-frontier blocks."""
        frontier: dict[int, set[int]] = {bid: set() for bid in self.idom}
        for block_id, block in self._by_id.items():
            preds = [p for p in block.predecessors() if id(p) in self.idom]
            if len(preds) < 2:
                continue
            for pred in preds:
                runner = pred
                while runner is not self.idom[block_id]:
                    frontier[id(runner)].add(block_id)
                    runner = self.idom[id(runner)]
        return frontier

    def block_by_id(self, block_id: int) -> BasicBlock:
        return self._by_id[block_id]


class PostDominatorTree:
    """Post-dominator tree, built on the reversed CFG.

    Control dependence (a PDG ingredient) is computed from this tree using
    the Ferrante–Ottenstein–Warren construction.  Functions with multiple
    exits are handled with a *virtual sink* block (not part of the function)
    that every exit flows into; the sink is the root of the tree.
    """

    def __init__(self, fn: Function):
        self.fn = fn
        #: Virtual exit that post-dominates everything.
        self.sink = BasicBlock("<sink>")
        #: id(block) -> immediate post-dominator (the sink's is itself).
        self.ipdom: dict[int, BasicBlock] = {}
        self._rpo_index: dict[int, int] = {}
        self._by_id: dict[int, BasicBlock] = {}
        self._build()

    def _succs(self, block: BasicBlock) -> list[BasicBlock]:
        """Successors in the sink-augmented CFG."""
        if block is self.sink:
            return []
        succs = block.successors()
        return succs if succs else [self.sink]

    def _preds(self, block: BasicBlock) -> list[BasicBlock]:
        """Predecessors in the sink-augmented CFG."""
        if block is self.sink:
            return [b for b in self.fn.blocks if not b.successors()]
        return block.predecessors()

    def _build(self) -> None:
        if not any(not b.successors() for b in self.fn.blocks):
            return  # infinite loop with no exit: nothing post-dominates
        order = self._reverse_cfg_rpo()
        for index, block in enumerate(order):
            self._rpo_index[id(block)] = index
            self._by_id[id(block)] = block
        self.ipdom[id(self.sink)] = self.sink
        changed = True
        while changed:
            changed = False
            for block in order:
                if block is self.sink:
                    continue
                new_ipdom: BasicBlock | None = None
                for succ in self._succs(block):
                    if id(succ) not in self.ipdom:
                        continue
                    if new_ipdom is None:
                        new_ipdom = succ
                    else:
                        new_ipdom = self._intersect(succ, new_ipdom)
                if new_ipdom is not None and self.ipdom.get(id(block)) is not new_ipdom:
                    self.ipdom[id(block)] = new_ipdom
                    changed = True

    def _reverse_cfg_rpo(self) -> list[BasicBlock]:
        """Reverse postorder of the reversed (sink-augmented) CFG."""
        order: list[BasicBlock] = []
        visited: set[int] = {id(self.sink)}
        stack: list[tuple[BasicBlock, int]] = [(self.sink, 0)]
        while stack:
            block, edge = stack[-1]
            preds = self._preds(block)
            if edge < len(preds):
                stack[-1] = (block, edge + 1)
                pred = preds[edge]
                if id(pred) not in visited:
                    visited.add(id(pred))
                    stack.append((pred, 0))
            else:
                stack.pop()
                order.append(block)
        return list(reversed(order))

    def _intersect(self, a: BasicBlock, b: BasicBlock) -> BasicBlock:
        while a is not b:
            while self._rpo_index[id(a)] > self._rpo_index[id(b)]:
                a = self.ipdom[id(a)]
            while self._rpo_index[id(b)] > self._rpo_index[id(a)]:
                b = self.ipdom[id(b)]
        return a

    def immediate_post_dominator(self, block: BasicBlock) -> BasicBlock | None:
        """The immediate post-dominator; the sink is reported as None."""
        parent = self.ipdom.get(id(block))
        if parent is None or parent is self.sink or parent is block:
            return None
        return parent

    def post_dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True if every path from ``b`` to an exit passes through ``a``."""
        if id(b) not in self.ipdom:
            return False
        node = b
        while True:
            if node is a:
                return True
            parent = self.ipdom.get(id(node))
            if parent is None or parent is node:
                return False
            node = parent
