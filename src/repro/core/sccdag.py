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
"""

from __future__ import annotations

from collections import deque

from ..analysis.loopinfo import NaturalLoop
from ..ir.instructions import Instruction
from ..perf import STATS
from .depgraph import DependenceGraph, DGEdge
from .pdg import LoopDG
from .reduction import ReductionDescriptor, match_reduction


class SCC:
    """One strongly connected component of a loop dependence graph."""

    INDEPENDENT = "independent"
    REDUCIBLE = "reducible"
    SEQUENTIAL = "sequential"

    def __init__(self, instructions: list[Instruction]):
        self.instructions = instructions
        self._ids = {id(i) for i in instructions}
        self.category = SCC.INDEPENDENT
        self.reduction: ReductionDescriptor | None = None
        #: True when this SCC embodies an affine induction variable: its
        #: instances are computable from the iteration number alone, so it
        #: is Independent even though it has a carried register dependence.
        self.is_induction = False
        #: Loop-carried edges internal to this SCC.
        self.carried_edges: list[DGEdge[Instruction]] = []

    def contains(self, inst: Instruction) -> bool:
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
    """The DAG of SCCs of one loop, with per-node classification."""

    def __init__(self, loop_dg: LoopDG, loop: NaturalLoop | None = None):
        super().__init__()
        self.loop_dg = loop_dg
        self.loop = loop or loop_dg.loop
        self.sccs: list[SCC] = []
        self._scc_of: dict[int, SCC] = {}
        with STATS.timer("sccdag.build"):
            self._condense()
            self._classify()

    # -- condensation ---------------------------------------------------------------
    def _condense(self) -> None:
        # Whether an endpoint is inside the loop is the LDG's to say (its
        # linked edges carry PDG nodes), hence ``internal_ids``.
        loop_dg = self.loop_dg
        internal = [n.value for n in loop_dg.internal_nodes()]
        internal_ids = {id(v) for v in internal}
        out = loop_dg._out
        successors: dict[int, list[Instruction]] = {
            id(v): [e.dst.value for e in out.get(id(v), ())
                    if id(e.dst.value) in internal_ids]
            for v in internal
        }
        components = _tarjan(internal, successors)
        for component in components:
            scc = SCC(component)
            self.sccs.append(scc)
            self.add_node(scc, internal=True)
            for inst in component:
                self._scc_of[id(inst)] = scc
        # DAG edges between distinct SCCs; carried edges recorded per SCC.
        seen_pairs: set[tuple[int, int]] = set()
        for edge in loop_dg._edges:
            src_scc = self._scc_of.get(id(edge.src.value))
            dst_scc = self._scc_of.get(id(edge.dst.value))
            if src_scc is None or dst_scc is None:
                continue
            if src_scc is dst_scc:
                if edge.is_loop_carried:
                    src_scc.carried_edges.append(edge)
                continue
            if edge.is_loop_carried:
                # A carried edge between two SCCs still orders their
                # instances; record it on the consumer side.
                dst_scc.carried_edges.append(edge)
            pair = (id(src_scc), id(dst_scc))
            if pair not in seen_pairs:
                seen_pairs.add(pair)
                self.add_edge(src_scc, dst_scc, edge.kind, edge.data_kind,
                              edge.is_memory, edge.is_must, edge.is_loop_carried)

    # -- classification ----------------------------------------------------------------
    def _classify(self) -> None:
        from ..analysis.scev import SCEVAddRec, ScalarEvolution

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

    def independent_sccs(self) -> list[SCC]:
        return [s for s in self.sccs if s.is_independent()]

    def topological_order(self) -> list[SCC]:
        """SCCs ordered so every DAG edge goes forward — DSWP's stage order.

        Kahn's algorithm, first-ready first.  The condensation of a graph
        is acyclic by construction, so a cycle here is a broken SCCDAG.
        """
        in_degree: dict[int, int] = {
            id(s): len(self._in.get(id(s), ())) for s in self.sccs
        }
        ready = deque(s for s in self.sccs if in_degree[id(s)] == 0)
        order: list[SCC] = []
        while ready:
            scc = ready.popleft()
            order.append(scc)
            for edge in self._out.get(id(scc), ()):
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


def _tarjan(
    values: list[Instruction], successors: dict[int, list[Instruction]]
) -> list[list[Instruction]]:
    """Iterative Tarjan SCC; components returned in reverse topological order."""
    index_counter = 0
    indices: dict[int, int] = {}
    lowlinks: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[Instruction] = []
    components: list[list[Instruction]] = []

    for root in values:
        if id(root) in indices:
            continue
        work: list[tuple[Instruction, int]] = [(root, 0)]
        while work:
            value, child_index = work[-1]
            if child_index == 0:
                indices[id(value)] = index_counter
                lowlinks[id(value)] = index_counter
                index_counter += 1
                stack.append(value)
                on_stack.add(id(value))
            advanced = False
            children = successors.get(id(value), [])
            while child_index < len(children):
                child = children[child_index]
                child_index += 1
                if id(child) not in indices:
                    work[-1] = (value, child_index)
                    work.append((child, 0))
                    advanced = True
                    break
                if id(child) in on_stack:
                    lowlinks[id(value)] = min(lowlinks[id(value)], indices[id(child)])
            if advanced:
                continue
            work.pop()
            if lowlinks[id(value)] == indices[id(value)]:
                component: list[Instruction] = []
                while True:
                    node = stack.pop()
                    on_stack.discard(id(node))
                    component.append(node)
                    if node is value:
                        break
                components.append(component)
            if work:
                parent, _ = work[-1]
                lowlinks[id(parent)] = min(lowlinks[id(parent)], lowlinks[id(value)])
    return components
