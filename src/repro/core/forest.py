"""The forest abstraction (Table 1, "FR").

A forest of trees whose defining feature is deletion behaviour: removing a
node re-attaches its children to its parent, so the forest stays connected
while transformations dissolve nodes (e.g. LICM processing loops innermost
to outermost, or a loop transformation deleting a loop).

The canonical instance is the loop-nesting forest, built from the NOELLE
loop abstraction so every tree node carries a :class:`repro.core.loop.Loop`.

A node owns its children and not its parent: the up-link is a weak
reference, and no traversal keeps a recursive closure.  A forest that is
dropped therefore holds no reference cycle, and reference counting frees
it at once together with every ``Loop`` it carried (each with its LDG and
aSCCDAG), instead of leaving them for the cyclic collector.  Whoever
holds the forest holds every node through ``roots`` and the node map, so
``parent`` always answers while the forest lives.
"""

from __future__ import annotations

import weakref
from typing import Generic, Iterator, TypeVar

T = TypeVar("T")


class TreeNode(Generic[T]):
    def __init__(self, value: T):
        self.value = value
        self._parent: "weakref.ref[TreeNode[T]] | None" = None
        self.children: list["TreeNode[T]"] = []

    @property
    def parent(self) -> "TreeNode[T] | None":
        return self._parent() if self._parent is not None else None

    @parent.setter
    def parent(self, node: "TreeNode[T] | None") -> None:
        self._parent = weakref.ref(node) if node is not None else None

    def depth(self) -> int:
        depth = 0
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TreeNode {self.value!r} ({len(self.children)} children)>"


class Forest(Generic[T]):
    """A forest with parent-preserving node deletion."""

    def __init__(self) -> None:
        self.roots: list[TreeNode[T]] = []
        self._node_of: dict[int, TreeNode[T]] = {}

    def add(self, value: T, parent_value: T | None = None) -> TreeNode[T]:
        node = TreeNode(value)
        self._node_of[id(value)] = node
        if parent_value is None:
            self.roots.append(node)
        else:
            parent = self._node_of[id(parent_value)]
            node.parent = parent
            parent.children.append(node)
        return node

    def node_of(self, value: T) -> TreeNode[T] | None:
        return self._node_of.get(id(value))

    def remove(self, value: T) -> None:
        """Delete a node; its children are re-attached to its parent."""
        node = self._node_of.pop(id(value), None)
        if node is None:
            return
        for child in node.children:
            child.parent = node.parent
        if node.parent is None:
            index = self.roots.index(node)
            self.roots[index : index + 1] = node.children
        else:
            siblings = node.parent.children
            index = siblings.index(node)
            siblings[index : index + 1] = node.children
        node.children = []
        node.parent = None

    # -- traversal -----------------------------------------------------------------
    def nodes(self) -> Iterator[TreeNode[T]]:
        stack = list(self.roots)
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)

    def values(self) -> Iterator[T]:
        for node in self.nodes():
            yield node.value

    def leaves(self) -> list[TreeNode[T]]:
        return [n for n in self.nodes() if not n.children]

    def bottom_up(self) -> list[TreeNode[T]]:
        """Nodes ordered children-before-parents (innermost loops first):
        the post-order that visits roots and children left to right.

        ``nodes()`` yields exactly the reverse of that order, so no
        recursion is needed however deep the forest nests.
        """
        order = list(self.nodes())
        order.reverse()
        return order

    def num_nodes(self) -> int:
        return len(self._node_of)
