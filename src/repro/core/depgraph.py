"""The generic *dependence graph* template (Section 2.2, "PDG").

NOELLE's PDG is an instantiation of a templated dependence-graph class:
what constitutes a node is decided at instantiation (instructions for the
PDG, functions for the call graph, SCCs for the SCCDAG).  Edges carry
attributes distinguishing control from data dependences; data dependences
are further characterized by kind (RAW/WAW/WAR), memory vs register,
loop-carried or not, and apparent (may) vs actual (must).

The graph also distinguishes *internal* from *external* nodes: internal
nodes belong to the code region the graph describes (e.g. a loop), external
nodes are its live-ins/live-outs — exactly the split a parallelizing
transformation needs.

An edge is an immutable fact.  A derived graph (a projection, a loop's
dependence graph) *links* the edges it shares with the graph it came from
instead of copying them: each graph owns its nodes and its own
``id(value) -> [edges]`` adjacency maps, and nothing points back from an
edge or a node to a graph, so a dropped graph is freed by reference
counting alone.

Every graph follows one lazy-index rule: a build writes a node table and
an edge list in build order, nothing else.  Each adjacency map is filled
on the first per-value query that needs its direction — the in-map by
``dependences_of``, the out-map by ``dependents_of`` and
``edges_between`` — and takes in the edges added since on every later
one.  A consumer that reads the edge list whole (a projection, a loop's
condensation) never pays for either map.
"""

from __future__ import annotations

from typing import Generic, Hashable, Iterator, TypeVar

T = TypeVar("T", bound=Hashable)

#: The kinds of a data dependence (``DGEdge.data_kind`` of a data edge).
DATA_KINDS = ("RAW", "WAW", "WAR")


class DGEdge(Generic[T]):
    """A directed dependence from ``src`` to ``dst`` (dst depends on src).

    Set once, at construction, and shared by every graph that contains
    it.  ``src`` and ``dst`` are the nodes of the graph that *created*
    the edge, so their ``is_internal`` describes that graph only: an edge
    a loop dependence graph links from the PDG has PDG nodes at both ends,
    and ``edge.src.is_internal`` says nothing about the loop.  Ask the
    graph (``graph.node_of(edge.src.value)``) instead.
    """

    __slots__ = ("src", "dst", "kind", "data_kind", "is_memory", "is_must",
                 "is_loop_carried", "distance")

    def __init__(
        self,
        src: "DGNode[T]",
        dst: "DGNode[T]",
        kind: str,
        data_kind: str | None = None,
        is_memory: bool = False,
        is_must: bool = False,
        is_loop_carried: bool = False,
        distance: int | None = None,
    ):
        if kind not in ("data", "control"):
            raise ValueError(f"bad edge kind {kind!r}")
        if kind == "data" and data_kind not in DATA_KINDS:
            raise ValueError(f"bad data dependence kind {data_kind!r}")
        self.src = src
        self.dst = dst
        self.kind = kind
        self.data_kind = data_kind
        self.is_memory = is_memory
        #: Actual (proved) vs apparent (may) dependence.
        self.is_must = is_must
        self.is_loop_carried = is_loop_carried
        #: Proven iteration distance of a carried memory dependence, when
        #: the dependence-test engine derived one (NOELLE_DEPTEST=1).
        self.distance = distance

    def is_data(self) -> bool:
        return self.kind == "data"

    def is_control(self) -> bool:
        return self.kind == "control"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tags = [self.kind]
        if self.data_kind:
            tags.append(self.data_kind)
        if self.is_memory:
            tags.append("mem")
        if self.is_loop_carried:
            tags.append("carried")
        return f"<edge {self.src.value!r} -> {self.dst.value!r} [{' '.join(tags)}]>"


class DGNode(Generic[T]):
    """A node wrapping one value of the instantiating type.

    Adjacency lives in the graph, not here: see
    :meth:`DependenceGraph.dependences_of` / ``dependents_of``.
    """

    __slots__ = ("value", "is_internal")

    def __init__(self, value: T, is_internal: bool = True):
        self.value = value
        self.is_internal = is_internal

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "internal" if self.is_internal else "external"
        return f"<node {self.value!r} ({role})>"


class DependenceGraph(Generic[T]):
    """A directed multigraph of dependences between nodes of type ``T``."""

    def __init__(self) -> None:
        self._nodes: dict[int, DGNode[T]] = {}
        #: Every edge, in build order: the only thing a build writes.
        self._edges: list[DGEdge[T]] = []
        #: id(value) -> edges leaving / entering it, in build order; a
        #: node without edges in that direction has no entry.  Filled by
        #: `_adjacency`, never by a build.
        self._out: dict[int, list[DGEdge[T]]] = {}
        self._in: dict[int, list[DGEdge[T]]] = {}
        #: How many of ``_edges`` the out- / in-map has taken in.
        self._indexed_out = 0
        self._indexed_in = 0

    # -- nodes --------------------------------------------------------------------
    def add_node(self, value: T, internal: bool = True) -> DGNode[T]:
        key = id(value)
        node = self._nodes.get(key)
        if node is None:
            node = self._nodes[key] = DGNode(value, internal)
        elif internal:
            node.is_internal = True
        return node

    def node_of(self, value: T) -> DGNode[T] | None:
        return self._nodes.get(id(value))

    def nodes(self) -> Iterator[DGNode[T]]:
        return iter(self._nodes.values())

    def internal_nodes(self) -> list[DGNode[T]]:
        return [n for n in self._nodes.values() if n.is_internal]

    def external_nodes(self) -> list[DGNode[T]]:
        return [n for n in self._nodes.values() if not n.is_internal]

    def num_nodes(self) -> int:
        return len(self._nodes)

    # -- edges ---------------------------------------------------------------------
    def add_edge(
        self,
        src: T,
        dst: T,
        kind: str,
        data_kind: str | None = None,
        is_memory: bool = False,
        is_must: bool = False,
        is_loop_carried: bool = False,
        distance: int | None = None,
    ) -> DGEdge[T]:
        """Create an edge of this graph (endpoints missing so far are
        added as internal nodes)."""
        src_node = self._nodes.get(id(src)) or self.add_node(src)
        dst_node = self._nodes.get(id(dst)) or self.add_node(dst)
        edge = DGEdge(src_node, dst_node, kind, data_kind, is_memory, is_must,
                      is_loop_carried, distance)
        self._link(edge)
        return edge

    def _link(self, edge: DGEdge[T]) -> None:
        """Make ``edge`` an edge of this graph; both endpoints are nodes."""
        self._edges.append(edge)

    def edges(self) -> list[DGEdge[T]]:
        return list(self._edges)

    def num_edges(self) -> int:
        return len(self._edges)

    def edges_between(self, src: T, dst: T) -> list[DGEdge[T]]:
        return [e for e in self._adjacency(True).get(id(src), ())
                if e.dst.value is dst]

    # -- the lazy index --------------------------------------------------------------
    def _unindexed(self, outgoing: bool) -> list[DGEdge[T]]:
        """The edges the out-map (``outgoing``) or in-map has not taken
        in yet, in build order; they count as taken in from now on."""
        edges = self._edges
        if outgoing:
            start, self._indexed_out = self._indexed_out, len(edges)
        else:
            start, self._indexed_in = self._indexed_in, len(edges)
        return edges[start:] if start else edges

    def _adjacency(self, outgoing: bool) -> dict[int, list[DGEdge[T]]]:
        """The out-map (``outgoing``) or in-map, brought up to date."""
        index = self._out if outgoing else self._in
        for edge in self._unindexed(outgoing):
            key = id(edge.src.value if outgoing else edge.dst.value)
            entry = index.get(key)
            if entry is None:
                index[key] = [edge]
            else:
                entry.append(edge)
        return index

    # -- dependence queries --------------------------------------------------------
    def dependences_of(self, value: T) -> list[DGEdge[T]]:
        """Edges from values ``value`` depends on (its incoming edges)."""
        return list(self._adjacency(False).get(id(value), ()))

    def dependents_of(self, value: T) -> list[DGEdge[T]]:
        """Edges to values that depend on ``value``."""
        return list(self._adjacency(True).get(id(value), ()))

    # -- derived graphs --------------------------------------------------------------
    def subgraph(self, internal_values: list[T]) -> "DependenceGraph[T]":
        """Project the graph onto ``internal_values``.

        Nodes outside the set that touch it are kept as *external* nodes —
        they are the region's live-ins/live-outs.
        """
        return self._project(internal_values, self.edges())

    def _project(
        self, internal_values: list[T], edges: "list[DGEdge[T]]"
    ) -> "DependenceGraph[T]":
        """Project onto ``internal_values`` considering only ``edges``.

        The caller guarantees ``edges`` contains every edge touching the
        internal set (subclasses that shard their edge lists — the PDG —
        use this to project without scanning unrelated shards).  The
        projection links this graph's edges; it copies none.
        """
        internal_ids = {id(v) for v in internal_values}
        result: DependenceGraph[T] = DependenceGraph()
        for value in internal_values:
            if id(value) in self._nodes:
                result.add_node(value, internal=True)
        for edge in edges:
            src, dst = edge.src.value, edge.dst.value
            src_in = id(src) in internal_ids
            dst_in = id(dst) in internal_ids
            if not (src_in or dst_in):
                continue
            if not src_in:
                result.add_node(src, internal=False)
            if not dst_in:
                result.add_node(dst, internal=False)
            result._link(edge)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DependenceGraph {len(self._nodes)} nodes, {len(self._edges)} edges>"
