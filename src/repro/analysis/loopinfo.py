"""Natural-loop detection.

Finds natural loops from back edges in the dominator tree and arranges them
in a nesting forest.  This is the raw CFG-level information; NOELLE's
``LoopStructure`` abstraction (:mod:`repro.core.loopstructure`) wraps one of
these loops with header/pre-header/latch/exit queries and user-controlled
lifetime.

A loop owns its ``children`` but not its ``parent``: the up-link is a
weak reference.  ``LoopInfo`` holds every loop (through ``top_level`` and
its block map), so ``parent`` answers for as long as the ``LoopInfo``
lives, and a dropped ``LoopInfo`` is freed by reference counting instead
of leaving a parent/children cycle per nested loop for the cyclic
collector.
"""

from __future__ import annotations

import weakref

from ..ir.module import BasicBlock, Function
from .dominators import DominatorTree


class NaturalLoop:
    """One natural loop: a header plus the blocks of its back edges' bodies."""

    def __init__(self, header: BasicBlock):
        self.header = header
        self.blocks: list[BasicBlock] = [header]
        self._block_ids: set[int] = {id(header)}
        self._parent: "weakref.ref[NaturalLoop] | None" = None
        self.children: list["NaturalLoop"] = []

    @property
    def parent(self) -> "NaturalLoop | None":
        """The smallest loop strictly containing this one, if any."""
        return self._parent() if self._parent is not None else None

    @parent.setter
    def parent(self, loop: "NaturalLoop | None") -> None:
        self._parent = weakref.ref(loop) if loop is not None else None

    def add_block(self, block: BasicBlock) -> None:
        if id(block) not in self._block_ids:
            self._block_ids.add(id(block))
            self.blocks.append(block)

    def contains_block(self, block: BasicBlock) -> bool:
        return id(block) in self._block_ids

    def contains(self, inst) -> bool:
        """True if ``inst`` (an instruction) lives inside this loop."""
        return inst.parent is not None and id(inst.parent) in self._block_ids

    # -- structural queries ------------------------------------------------------
    def latches(self) -> list[BasicBlock]:
        """Blocks inside the loop that branch back to the header."""
        return [p for p in self.header.predecessors() if self.contains_block(p)]

    def entries(self) -> list[BasicBlock]:
        """Blocks outside the loop that branch to the header."""
        return [p for p in self.header.predecessors() if not self.contains_block(p)]

    def exiting_blocks(self) -> list[BasicBlock]:
        """Blocks inside the loop with a successor outside it."""
        result = []
        for block in self.blocks:
            if any(not self.contains_block(s) for s in block.successors()):
                result.append(block)
        return result

    def exit_blocks(self) -> list[BasicBlock]:
        """Blocks outside the loop that are targets of loop exits."""
        result: list[BasicBlock] = []
        seen: set[int] = set()
        for block in self.blocks:
            for succ in block.successors():
                if not self.contains_block(succ) and id(succ) not in seen:
                    seen.add(id(succ))
                    result.append(succ)
        return result

    def depth(self) -> int:
        """Nesting depth; top-level loops have depth 1."""
        depth = 1
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    def innermost_loops(self) -> list["NaturalLoop"]:
        if not self.children:
            return [self]
        result = []
        for child in self.children:
            result.extend(child.innermost_loops())
        return result

    def sub_loops(self) -> list["NaturalLoop"]:
        """All loops strictly nested inside this one."""
        result: list["NaturalLoop"] = []
        stack = list(self.children)
        while stack:
            loop = stack.pop()
            result.append(loop)
            stack.extend(loop.children)
        return result

    def instructions(self):
        for block in self.blocks:
            yield from block.instructions

    def num_instructions(self) -> int:
        return sum(len(b.instructions) for b in self.blocks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NaturalLoop header=%{self.header.name} blocks={len(self.blocks)}>"


class LoopInfo:
    """The loop nesting forest of one function."""

    def __init__(self, fn: Function, dom: DominatorTree | None = None):
        self.fn = fn
        self.dom = dom or DominatorTree(fn)
        self.top_level: list[NaturalLoop] = []
        self._loop_of_block: dict[int, NaturalLoop] = {}
        self._build()

    def _build(self) -> None:
        # Find back edges: edge (tail -> head) where head dominates tail.
        loops_by_header: dict[int, NaturalLoop] = {}
        header_order: list[BasicBlock] = []
        for block in self.fn.blocks:
            for succ in block.successors():
                if self.dom.dominates_block(succ, block):
                    loop = loops_by_header.get(id(succ))
                    if loop is None:
                        loop = NaturalLoop(succ)
                        loops_by_header[id(succ)] = loop
                        header_order.append(succ)
                    self._collect_body(loop, block)
        # Nest loops: a loop is a child of the smallest loop (other than
        # itself) containing its header.
        all_loops = [loops_by_header[id(h)] for h in header_order]
        all_loops.sort(key=lambda loop: len(loop.blocks))
        for index, loop in enumerate(all_loops):
            for candidate in all_loops[index + 1 :]:
                if candidate.contains_block(loop.header):
                    loop.parent = candidate
                    candidate.children.append(loop)
                    break
        self.top_level = [loop for loop in all_loops if loop.parent is None]
        # innermost-loop-of-block map.
        for loop in all_loops:
            for block in loop.blocks:
                current = self._loop_of_block.get(id(block))
                if current is None or len(loop.blocks) < len(current.blocks):
                    self._loop_of_block[id(block)] = loop

    def _collect_body(self, loop: NaturalLoop, tail: BasicBlock) -> None:
        # Walk predecessors from the back edge's tail, stopping at the header.
        stack = [tail]
        while stack:
            block = stack.pop()
            if loop.contains_block(block):
                continue
            loop.add_block(block)
            stack.extend(block.predecessors())

    # -- queries -----------------------------------------------------------------
    def loops(self) -> list[NaturalLoop]:
        """All loops, outermost first within each tree."""
        result: list[NaturalLoop] = []
        stack = list(self.top_level)
        while stack:
            loop = stack.pop(0)
            result.append(loop)
            stack.extend(loop.children)
        return result

    def innermost_loops(self) -> list[NaturalLoop]:
        result = []
        for loop in self.top_level:
            result.extend(loop.innermost_loops())
        return result

    def loop_of(self, block: BasicBlock) -> NaturalLoop | None:
        """The innermost loop containing ``block``, if any."""
        return self._loop_of_block.get(id(block))

    def loop_depth(self, block: BasicBlock) -> int:
        loop = self.loop_of(block)
        return loop.depth() if loop is not None else 0
