"""The augmented SCCDAG abstraction (Table 1, "aSCCDAG").

Condenses a loop's dependence graph into strongly connected components
(Tarjan) and classifies every SCC by the relation between the dynamic
instances of its instructions across iterations of one loop invocation:

* **Independent** — no instance depends on another instance (no
  loop-carried edge touches the SCC internally): HELIX/DOALL can run its
  instances fully in parallel.
* **Reducible** — instances depend on each other, but only through a
  reduction (e.g. ``s += work(d)``): cloning the accumulator removes the
  dependence; the reduction descriptor is attached to the node.
* **Sequential** — instances must execute in iteration order.

The condensation reads the loop dependence graph's edge list, never its
adjacency maps: it numbers the internal nodes, derives integer successor
lists in one pass over the edges and runs Tarjan over those integers.
The same pass records each SCC's carried edges and the distinct pairs of
SCCs an edge connects; the DAG's own edges are created from those pairs
only when ``edges()``, ``topological_order()`` or a per-value query asks
(DSWP's partitioner does; classification, DOALL, HELIX and the
invariant and induction-variable managers never do).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from ..analysis.loopinfo import NaturalLoop
from ..ir.instructions import Instruction
from ..perf import STATS
from .depgraph import DependenceGraph, DGEdge, DGNode
from .pdg import LoopDG

if TYPE_CHECKING:
    from .reduction import ReductionDescriptor


class SCC:
    """One strongly connected component of a loop dependence graph."""

    INDEPENDENT = "independent"
    REDUCIBLE = "reducible"
    SEQUENTIAL = "sequential"

    def __init__(self, instructions: list[Instruction]):
        self.instructions = instructions
        #: Member ids, built on the first `contains`.
        self._ids: set[int] | None = None
        self.category = SCC.INDEPENDENT
        self.reduction: ReductionDescriptor | None = None
        #: True when this SCC embodies an affine induction variable: its
        #: instances are computable from the iteration number alone, so it
        #: is Independent even though it has a carried register dependence.
        self.is_induction = False
        #: Loop-carried edges internal to this SCC.
        self.carried_edges: list[DGEdge[Instruction]] = []

    def contains(self, inst: Instruction) -> bool:
        if self._ids is None:
            self._ids = {id(i) for i in self.instructions}
        return id(inst) in self._ids

    def is_independent(self) -> bool:
        return self.category == SCC.INDEPENDENT

    def is_reducible(self) -> bool:
        return self.category == SCC.REDUCIBLE

    def is_sequential(self) -> bool:
        return self.category == SCC.SEQUENTIAL

    def has_memory_dependences(self) -> bool:
        return any(e.is_memory for e in self.carried_edges)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SCC {self.category} ({len(self.instructions)} insts)>"


class SCCDAG(DependenceGraph[SCC]):
    """The DAG of SCCs of one loop, with per-node classification.

    Its edges between SCCs are created on first use (see the module
    docstring); ``sccdag.edge_builds`` counts the graphs that created
    them.
    """

    def __init__(self, loop_dg: LoopDG, loop: NaturalLoop | None = None):
        super().__init__()
        self.loop_dg = loop_dg
        self.loop = loop or loop_dg.loop
        self.sccs: list[SCC] = []
        self._scc_of: dict[int, SCC] = {}
        #: (source SCC index, destination SCC index, the first loop edge
        #: between them) per connected pair, in loop edge order; None once
        #: the DAG edges exist.
        self._pairs: list[tuple[int, int, DGEdge[Instruction]]] | None = []
        with STATS.timer("sccdag.build"):
            self._condense()
            self._classify()

    # -- condensation ---------------------------------------------------------------
    def _condense(self) -> None:
        # Whether an endpoint is inside the loop is the LDG's to say (its
        # linked edges carry PDG nodes), hence the numbering of its
        # internal nodes.
        loop_dg = self.loop_dg
        internal = [n.value for n in loop_dg.internal_nodes()]
        number = {id(value): k for k, value in enumerate(internal)}
        successors: list[list[int]] = [[] for _ in internal]
        inner: list[tuple[int, int, DGEdge[Instruction]]] = []
        for edge in loop_dg._edges:
            src = number.get(id(edge.src.value))
            if src is None:
                continue
            dst = number.get(id(edge.dst.value))
            if dst is None:
                continue
            successors[src].append(dst)
            inner.append((src, dst, edge))
        component_of, components = _tarjan(successors)
        sccs = self.sccs
        nodes = self._nodes
        for members in components:
            scc = SCC([internal[k] for k in members])
            sccs.append(scc)
            nodes[id(scc)] = DGNode(scc, True)
        self._scc_of = {
            id(value): sccs[component_of[k]] for k, value in enumerate(internal)
        }
        # Carried edges recorded per SCC; one DAG edge per distinct pair.
        pairs = self._pairs
        seen_pairs: set[int] = set()
        width = len(sccs)
        for src, dst, edge in inner:
            src_scc, dst_scc = component_of[src], component_of[dst]
            if src_scc == dst_scc:
                if edge.is_loop_carried:
                    sccs[src_scc].carried_edges.append(edge)
                continue
            if edge.is_loop_carried:
                # A carried edge between two SCCs still orders their
                # instances; record it on the consumer side.
                sccs[dst_scc].carried_edges.append(edge)
            pair = src_scc * width + dst_scc
            if pair not in seen_pairs:
                seen_pairs.add(pair)
                pairs.append((src_scc, dst_scc, edge))

    def _build_edges(self) -> None:
        """Create the DAG edges between SCCs, once."""
        pairs = self._pairs
        if pairs is None:
            return
        self._pairs = None
        STATS.count("sccdag.edge_builds")
        nodes = self._nodes
        sccs = self.sccs
        for src, dst, edge in pairs:
            self._edges.append(DGEdge(
                nodes[id(sccs[src])], nodes[id(sccs[dst])], edge.kind,
                edge.data_kind, edge.is_memory, edge.is_must,
                edge.is_loop_carried,
            ))

    def edges(self) -> list[DGEdge[SCC]]:
        self._build_edges()
        return super().edges()

    def num_edges(self) -> int:
        self._build_edges()
        return super().num_edges()

    def _unindexed(self, outgoing: bool) -> list[DGEdge[SCC]]:
        self._build_edges()
        return super()._unindexed(outgoing)

    # -- classification ----------------------------------------------------------------
    def _classify(self) -> None:
        from ..analysis.scev import ScalarEvolution
        from .reduction import match_reduction

        scev = ScalarEvolution(self.loop)
        for scc in self.sccs:
            if not scc.carried_edges:
                scc.category = SCC.INDEPENDENT
                continue
            if self._is_induction_scc(scc, scev):
                # Affine IVs are re-computable per iteration: Independent.
                scc.category = SCC.INDEPENDENT
                scc.is_induction = True
                continue
            reduction = match_reduction(scc, self.loop)
            if reduction is not None:
                scc.category = SCC.REDUCIBLE
                scc.reduction = reduction
            else:
                scc.category = SCC.SEQUENTIAL

    def _is_induction_scc(self, scc: SCC, scev) -> bool:
        """Is this SCC a governing/plain affine IV cycle?

        The canonical governing-IV SCC contains the header phi, its update
        arithmetic, the exit compare against a loop-invariant bound, and
        the exiting branch (pulled in by the control-dependence back edge).
        Every instance is computable from the iteration number alone.
        """
        from ..analysis.scev import SCEVAddRec
        from ..ir.instructions import BinaryOp, Cast, CmpInst, Phi, TerminatorInst

        if scc.has_memory_dependences():
            return False
        saw_addrec = False
        for inst in scc.instructions:
            if isinstance(inst, Phi):
                if not isinstance(scev.evolution_of(inst), SCEVAddRec):
                    return False
                saw_addrec = True
            elif isinstance(inst, BinaryOp):
                from ..analysis.scev import evolution_is_invariant

                evolution = scev.evolution_of(inst)
                if evolution is None:
                    return False
                if not isinstance(evolution, SCEVAddRec) and not (
                    evolution_is_invariant(evolution)
                ):
                    return False
            elif isinstance(inst, CmpInst):
                if not self._compares_iv_to_invariant(inst, scev):
                    return False
            elif isinstance(inst, (Cast, TerminatorInst)):
                continue
            else:
                return False
        return saw_addrec

    def _compares_iv_to_invariant(self, compare, scev) -> bool:
        from ..analysis.scev import SCEVAddRec, evolution_is_invariant
        from ..ir.values import ConstantInt

        for operand in (compare.lhs, compare.rhs):
            if isinstance(operand, ConstantInt):
                continue
            if isinstance(operand, Instruction) and self.loop.contains(operand):
                evolution = scev.evolution_of(operand)
                if not isinstance(evolution, SCEVAddRec) and not (
                    evolution_is_invariant(evolution)
                ):
                    return False
            # Values from outside the loop are invariant by construction.
        return True

    # -- queries --------------------------------------------------------------------
    def scc_of(self, inst: Instruction) -> SCC | None:
        return self._scc_of.get(id(inst))

    def sequential_sccs(self) -> list[SCC]:
        return [s for s in self.sccs if s.is_sequential()]

    def reducible_sccs(self) -> list[SCC]:
        return [s for s in self.sccs if s.is_reducible()]

    def topological_order(self) -> list[SCC]:
        """SCCs ordered so every DAG edge goes forward — DSWP's stage order.

        Kahn's algorithm, first-ready first.  The condensation of a graph
        is acyclic by construction, so a cycle here is a broken SCCDAG.
        """
        incoming = self._adjacency(False)
        outgoing = self._adjacency(True)
        in_degree: dict[int, int] = {
            id(s): len(incoming.get(id(s), ())) for s in self.sccs
        }
        ready = deque(s for s in self.sccs if in_degree[id(s)] == 0)
        order: list[SCC] = []
        while ready:
            scc = ready.popleft()
            order.append(scc)
            for edge in outgoing.get(id(scc), ()):
                succ = edge.dst.value
                in_degree[id(succ)] -= 1
                if in_degree[id(succ)] == 0:
                    ready.append(succ)
        if len(order) != len(self.sccs):
            raise RuntimeError(
                f"SCCDAG has a cycle: {len(self.sccs) - len(order)} of "
                f"{len(self.sccs)} SCCs are never ready"
            )
        return order


def _tarjan(successors: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Iterative Tarjan SCC over nodes ``0 .. n-1``, roots in index order.

    Returns each node's component number and the components (members in
    the order they leave the stack), in reverse topological order.
    """
    count = len(successors)
    unvisited = -1
    indices = [unvisited] * count
    lowlinks = [0] * count
    on_stack = [False] * count
    component_of = [0] * count
    stack: list[int] = []
    components: list[list[int]] = []
    index_counter = 0

    for root in range(count):
        if indices[root] != unvisited:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            node, child_index = work[-1]
            if child_index == 0:
                indices[node] = lowlinks[node] = index_counter
                index_counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            children = successors[node]
            while child_index < len(children):
                child = children[child_index]
                child_index += 1
                if indices[child] == unvisited:
                    work[-1] = (node, child_index)
                    work.append((child, 0))
                    advanced = True
                    break
                if on_stack[child] and indices[child] < lowlinks[node]:
                    lowlinks[node] = indices[child]
            if advanced:
                continue
            work.pop()
            if lowlinks[node] == indices[node]:
                number = len(components)
                component: list[int] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component_of[member] = number
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                if lowlinks[node] < lowlinks[parent]:
                    lowlinks[parent] = lowlinks[node]
    return component_of, components
