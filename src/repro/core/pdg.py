"""The Program Dependence Graph abstraction (Table 1, "PDG").

Instantiates the dependence-graph template with IR instructions.  Edges:

* **register data dependences** — SSA def-use chains (always RAW, must);
* **memory data dependences** — between memory-touching instruction pairs,
  classified RAW/WAW/WAR and must/may by the configured alias analysis
  (the strong Andersen AA by default — the SCAF/SVF stand-in);
* **control dependences** — from the Ferrante–Ottenstein–Warren relation.

The PDG is *function-sharded and demand-driven*: constructing one records
nothing but the module and the alias analysis, and each function's
dependence subgraph materializes the first time anything queries it
(``function_dependence_graph``, ``loop_dependence_graph``, a scheduler
walking ``dependences_of``, ...).  Whole-graph accessors (``edges()``,
``num_nodes()``, the Figure 3 counters) materialize every shard, so an
eagerly-consumed PDG is indistinguishable from the seed's eager build.
Since no dependence edge crosses a function boundary (calls are
summarized by mod/ref inside the caller), a shard can be dropped and
rebuilt in isolation — `Noelle.invalidate(fn)` uses exactly that to make
the transform→invalidate→re-query cycle pay for one function instead of
the whole module.  A shard owns its function's edges: the PDG keeps no
module-wide edge list.  Its adjacency maps follow the one lazy-index rule
of every dependence graph (see ``depgraph``): a built shard enters a map
on the first per-value query of that direction, so dropping a shard is
popping its nodes' entries and letting reference counting free the rest.

A shard is also the unit of persistence.  ``export_shard(fn)`` renders
one as position-indexed plain data and ``adopt_shard(fn, payload)``
installs such a payload in place of a build, running no analysis; this
is the only shard encoding there is.  Module metadata
(``noelle-meta-pdg-embed``, riding ``.nir``) and the artifact cache
(``repro.cache``) are two carriers of the same payload, and a graph put
together from adopted shards is an ordinary :class:`PDG` — whatever was
not adopted, or is invalidated later, builds on demand.  Both carriers
hand their ``{function name: payload}`` map to ``adopt_shards``, the one
way a payload enters a graph: each payload that fits its function
becomes that function's nodes and edges at once, so an adopted shard is
indistinguishable from a built one.

Building a shard is :mod:`repro.core.pdgbuilder`'s job, imported on the
first build: it is where the alias analysis answers pairs.

From the program PDG a pass can request *function* and *loop* dependence
graphs.  Requesting a loop dependence graph triggers the loop-centric
refinements the paper describes: loop-carried classification of register
and memory dependences (the dependence tester's address linearization) and
live-in/live-out computation via internal/external nodes.  Both link the
shard's edge objects; a loop dependence graph creates only the edges that
differ — the carried ones and their reversed twins — and, like every
dependence graph here, fills its adjacency maps only when a per-value
query asks for them.
"""

from __future__ import annotations

from operator import index
from typing import TYPE_CHECKING, Iterator

from ..ir.instructions import Instruction, Load, Phi, Store
from ..ir.module import Function, Module
from ..ir.values import Argument, Constant, Value
from ..perf import STATS, gc_paused
from .depgraph import DependenceGraph, DGEdge, DGNode

if TYPE_CHECKING:  # imported where a loop's graph is built
    from ..analysis.deptest import DependenceTester
    from ..analysis.loopinfo import NaturalLoop

#: Version of the `PDG.export_shard` payload; bump on any change to it.
SHARD_VERSION = 1


class _Shard:
    """One function's slice of the PDG: its nodes, edges, and counters.

    The only owner of its edges: every PDG edge is in exactly one shard.
    """

    __slots__ = ("fn", "node_ids", "edges", "queries", "disproved",
                 "__weakref__")

    def __init__(self, fn: Function):
        self.fn = fn
        self.node_ids: list[int] = []
        self.edges: list[DGEdge[Instruction]] = []
        self.queries = 0
        self.disproved = 0


class PDG(DependenceGraph[Instruction]):
    """Program dependence graph over all instructions of a module.

    A lazy container of per-function dependence shards; see the module
    docstring for the materialization and invalidation contract.
    ``aa`` is the alias analysis or a zero-argument supplier of it; a
    supplier is called once, when the first shard has to be built, so a
    graph whose shards are all adopted never runs the analysis.
    ``partition=False`` disables the points-to pair pruning (the seed's
    exact all-pairs loop) — used by the equivalence tests and benchmarks.
    """

    def __init__(self, module: Module, aa, partition: bool = True):
        super().__init__()
        del self._edges  # a PDG's edges live only in its shards
        self.module = module
        self.aa = aa
        self.partition = partition
        #: Statistics used by the Figure 3 experiment: how many memory
        #: instruction pairs were queried and how many were disproved.
        #: (Exposed as materializing properties below.)
        self._memory_queries = 0
        self._memory_disproved = 0
        self._shards: dict[int, _Shard] = {}
        #: The shard being built or adopted: new edges go into it.
        self._building: _Shard | None = None
        #: id(fn) -> shard whose edges the out- / in-map has not taken in
        #: yet (what `_unindexed` hands the shared lazy index).
        self._pending_out: dict[int, _Shard] = {}
        self._pending_in: dict[int, _Shard] = {}

    # -- shard lifecycle ---------------------------------------------------------------
    def materialize(self) -> None:
        """Build every missing shard (the eager full-module build)."""
        if self._building is not None:
            return
        current = {id(fn) for fn in self.module.defined_functions()}
        for stale_id in [fid for fid in self._shards if fid not in current]:
            self.invalidate_function(self._shards[stale_id].fn)
        for fn in self.module.defined_functions():
            self._ensure_function(fn)

    def _ensure_function(self, fn: Function | None) -> None:
        """``fn``'s shard built, unless it has one."""
        if fn is None or self._building is not None:
            return
        if id(fn) in self._shards or fn.is_declaration():
            return
        from .pdgbuilder import build_shard

        STATS.count("pdg.shard_builds")
        build_shard(self, fn)

    def _ensure_value(self, value) -> None:
        if isinstance(value, Instruction):
            self._ensure_function(_function_of(value))

    def _shard_of(self, fn: Function) -> _Shard | None:
        """``fn``'s shard, built first if needed; None for declarations."""
        self._ensure_function(fn)
        return self._shards.get(id(fn))

    def _unindexed(self, outgoing: bool) -> list[DGEdge[Instruction]]:
        """The edges of every shard built since the map last took any in
        (a shard still building waits)."""
        pending = self._pending_out if outgoing else self._pending_in
        edges: list[DGEdge[Instruction]] = []
        for key, shard in list(pending.items()):
            if shard is not self._building:
                edges += shard.edges
                del pending[key]
        return edges

    def invalidate_function(self, fn: Function) -> bool:
        """Drop ``fn``'s shard (rebuilt on next query); False if absent.

        Every edge touching the shard's nodes is the shard's own, so
        popping the nodes' adjacency entries unlinks all of them.
        """
        shard = self._shards.pop(id(fn), None)
        if shard is None:
            return False
        STATS.count("pdg.shard_invalidations")
        self._pending_out.pop(id(fn), None)
        self._pending_in.pop(id(fn), None)
        for node_id in shard.node_ids:
            self._nodes.pop(node_id, None)
            self._out.pop(node_id, None)
            self._in.pop(node_id, None)
        self._memory_queries -= shard.queries
        self._memory_disproved -= shard.disproved
        return True

    def built_functions(self) -> list[Function]:
        """Functions whose shard is currently materialized."""
        return [shard.fn for shard in self._shards.values()]

    def unsharded_functions(self) -> list[Function]:
        """Defined functions with no shard yet, built or adopted, in
        module order: the ones `adopt_shards` adopts a payload for."""
        shards = self._shards
        return [fn for fn in self.module.defined_functions() if id(fn) not in shards]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PDG {len(self._shards)} shards, {len(self._nodes)} nodes>"

    # -- Figure 3 counters -------------------------------------------------------------
    @property
    def memory_queries(self) -> int:
        self.materialize()
        return self._memory_queries

    @memory_queries.setter
    def memory_queries(self, value: int) -> None:
        self._memory_queries = value

    @property
    def memory_disproved(self) -> int:
        self.materialize()
        return self._memory_disproved

    @memory_disproved.setter
    def memory_disproved(self, value: int) -> None:
        self._memory_disproved = value

    # -- materializing accessors ---------------------------------------------------------
    # Whole-graph views build every shard first; per-value views only
    # the owning function's shard.
    def nodes(self) -> Iterator[DGNode[Instruction]]:
        self.materialize()
        return super().nodes()

    def internal_nodes(self) -> list[DGNode[Instruction]]:
        self.materialize()
        return super().internal_nodes()

    def external_nodes(self) -> list[DGNode[Instruction]]:
        self.materialize()
        return super().external_nodes()

    def num_nodes(self) -> int:
        self.materialize()
        return super().num_nodes()

    def edges(self) -> list[DGEdge[Instruction]]:
        """Every shard's edges, shards in build order."""
        self.materialize()
        return [edge for shard in self._shards.values() for edge in shard.edges]

    def num_edges(self) -> int:
        self.materialize()
        return sum(len(shard.edges) for shard in self._shards.values())

    def node_of(self, value) -> DGNode[Instruction] | None:
        self._ensure_value(value)
        return super().node_of(value)

    def dependences_of(self, value) -> list[DGEdge[Instruction]]:
        self._ensure_value(value)
        return super().dependences_of(value)

    def dependents_of(self, value) -> list[DGEdge[Instruction]]:
        self._ensure_value(value)
        return super().dependents_of(value)

    def edges_between(self, src, dst) -> list[DGEdge[Instruction]]:
        self._ensure_value(src)
        self._ensure_value(dst)
        return super().edges_between(src, dst)

    def subgraph(self, internal_values: list[Instruction]) -> DependenceGraph[Instruction]:
        """Project onto ``internal_values``, touching only their shards.

        Dependence edges never cross functions, so the projection only
        needs the shards owning the internal values — untouched functions
        are neither built nor scanned.
        """
        fns: list[Function] = []
        for value in internal_values:
            fn = _function_of(value) if isinstance(value, Instruction) else None
            if fn is None:
                # A detached value: fall back to the full-graph projection.
                self.materialize()
                return super().subgraph(internal_values)
            if fn not in fns:
                fns.append(fn)
        edges: list[DGEdge[Instruction]] = []
        for fn in fns:
            shard = self._shard_of(fn)
            if shard is not None:
                edges.extend(shard.edges)
        return self._project(internal_values, edges)

    # -- construction ------------------------------------------------------------
    # A shard build writes its edges straight into the shard's list, each
    # endpoint taken from the node table `_open_shard` wrote; nothing in
    # it goes through `add_edge`.
    def _open_shard(
        self, fn: Function, insts: list[Instruction]
    ) -> tuple[_Shard, list[DGNode[Instruction]]]:
        """Register ``fn``'s shard with its nodes and, so far, no edges;
        also returns the nodes in instruction order."""
        shard = self._shards[id(fn)] = _Shard(fn)
        self._pending_out[id(fn)] = self._pending_in[id(fn)] = shard
        table = [self.add_node(inst, internal=True) for inst in insts]
        shard.node_ids = [id(inst) for inst in insts]
        self._building = shard
        return shard, table

    # -- the shard codec ---------------------------------------------------------------
    def export_shard(self, fn: Function) -> dict | None:
        """``fn``'s shard as position-indexed, process-independent data.

        Instructions are named by their index in ``fn.instructions()``,
        so the payload fits any module that prints the same.  None when
        an edge names an instruction ``fn`` no longer holds (the body
        was rewritten without invalidating the shard).
        """
        shard = self._shard_of(fn)
        position = {id(inst): i for i, inst in enumerate(fn.instructions())}
        edges = []
        for edge in shard.edges:
            src_i = position.get(id(edge.src.value))
            dst_i = position.get(id(edge.dst.value))
            if src_i is None or dst_i is None:
                return None
            edges.append(
                (src_i, dst_i, edge.kind, edge.data_kind, edge.is_memory,
                 edge.is_must)
            )
        return {
            "fn": fn.name,
            "ninsts": len(position),
            "edges": edges,
            "queries": shard.queries,
            "disproved": shard.disproved,
        }

    def adopt_shard(self, fn: Function, payload: dict) -> bool:
        """Install an `export_shard` payload as ``fn``'s shard: its nodes
        and edges are built from the payload's records, running no
        analysis.

        Payloads arrive from outside the process (cache files, ``.nir``
        metadata): one that does not fit ``fn`` as it is now — wrong
        instruction count, an index out of range, a malformed record —
        is refused, nothing changes, and the function builds on demand
        like any other.  So is one for a function that already has a
        shard.
        """
        if id(fn) in self._shards:
            return False
        insts = list(fn.instructions())
        count = len(insts)
        try:
            if payload["ninsts"] != count:
                return False
            queries = int(payload["queries"])
            disproved = int(payload["disproved"])
            with gc_paused:
                shard, table = self._open_shard(fn, insts)
                append = shard.edges.append
                for src_i, dst_i, kind, data_kind, is_memory, is_must in (
                    payload["edges"]
                ):
                    if not (0 <= index(src_i) < count
                            and 0 <= index(dst_i) < count):
                        raise ValueError("edge endpoint out of range")
                    append(DGEdge(table[src_i], table[dst_i], kind,
                                  data_kind, is_memory, is_must))
        except (KeyError, TypeError, ValueError):
            self.invalidate_function(fn)  # drops a half-installed shard
            return False
        finally:
            self._building = None
        shard.queries = queries
        shard.disproved = disproved
        self._memory_queries += queries
        self._memory_disproved += disproved
        return True

    def adopt_shards(self, payloads: dict) -> tuple[list[str], list[str]]:
        """Adopt a ``{function name: payload}`` map, the form both
        carriers hold, into the module's defined functions.

        A function that already has a shard, built or adopted, keeps it
        and its payload is skipped.  Returns the names whose payloads
        were adopted and the names whose payloads were refused (see
        `adopt_shard`), each in module order.
        """
        adopted: list[str] = []
        refused: list[str] = []
        with gc_paused:  # one pause: no collector pass between shards
            for fn in self.unsharded_functions():
                if fn.name not in payloads:
                    continue
                if self.adopt_shard(fn, payloads[fn.name]):
                    adopted.append(fn.name)
                else:
                    refused.append(fn.name)
        return adopted, refused

    # -- derived graphs --------------------------------------------------------------
    def function_dependence_graph(self, fn: Function) -> DependenceGraph[Instruction]:
        """Dependences restricted to ``fn``; externals are its boundary."""
        self._ensure_function(fn)
        return self.subgraph(list(fn.instructions()))

    def loop_dependence_graph(self, loop: NaturalLoop) -> "LoopDG":
        """The loop's dependence graph, refined with loop-carried analysis."""
        return LoopDG(self, loop)


def _function_of(inst: Instruction) -> Function | None:
    block = getattr(inst, "parent", None)
    return block.parent if block is not None else None


class LoopDG(DependenceGraph[Instruction]):
    """Dependence graph of one loop with loop-carried classification.

    Internal nodes are the loop's instructions; external nodes are the
    producers of live-ins and the consumers of live-outs.  Built in one
    pass over the function's shard that writes the node table and the
    edge list only: an edge the loop does not re-classify is linked, a
    carried one (and its reversed memory twin) is created, and the
    adjacency maps wait for a per-value query (the invariant manager
    asks for the in-map; nothing on a compile asks for the out-map).
    """

    def __init__(self, pdg: PDG, loop: NaturalLoop):
        from ..analysis.deptest import DependenceTester, deptest_enabled

        super().__init__()
        self.pdg = pdg
        self.loop = loop
        #: The graph's dependence tester, built on the first memory edge
        #: between two of the loop's instructions; it owns the graph's
        #: one scalar evolution.
        self._tester: DependenceTester | None = None
        # The shard's nodes are all internal *to the PDG*, so whether an
        # endpoint is inside the loop is asked of ``internal``: the PDG
        # nodes of the loop's instructions, hashed by identity.
        shard_edges = pdg._shard_of(loop.header.parent).edges
        pdg_nodes = pdg._nodes
        nodes = self._nodes
        append = self._edges.append
        internal: set[DGNode[Instruction]] = set()
        for inst in loop.instructions():
            node = pdg_nodes.get(id(inst))
            if node is not None:
                nodes[id(inst)] = DGNode(inst, True)
                internal.add(node)
        deptest = deptest_enabled()
        tester = None
        for edge in shard_edges:
            src_node, dst_node = edge.src, edge.dst
            src_in = src_node in internal
            dst_in = dst_node in internal
            if not (src_in and dst_in):
                if src_in or dst_in:
                    outside = (dst_node if src_in else src_node).value
                    if id(outside) not in nodes:
                        nodes[id(outside)] = DGNode(outside, False)
                    append(edge)
                continue
            src, dst = src_node.value, dst_node.value
            distance = None
            if edge.kind == "control":
                carried = False
            elif edge.is_memory:
                if tester is None:
                    tester = self._tester = DependenceTester(loop)
                carried = not tester.intra_iteration(src, dst)
                if carried and deptest:
                    carried, distance = tester.carried(src, dst)
                    if not carried:
                        STATS.count("deptest.carried_disproved")
            else:
                carried = self._register_dep_carried(src, dst)
            if not carried:
                append(edge)
                continue
            src_node, dst_node = nodes[id(src)], nodes[id(dst)]
            append(DGEdge(src_node, dst_node, edge.kind, edge.data_kind,
                          edge.is_memory, edge.is_must, True, distance))
            # A carried memory conflict is direction-free: the later
            # instruction of one iteration conflicts with the earlier one of
            # the next.  The program-order PDG only has the forward edge, so
            # materialize the reverse carried edge here (e.g. the store→load
            # RAW of ``b[i] = b[i-1]``).
            if edge.is_memory:
                reverse_kind = _reverse_memory_kind(dst, src)
                if reverse_kind is not None:
                    append(DGEdge(
                        dst_node, src_node, "data", reverse_kind, True,
                        edge.is_must, True,
                        None if distance is None else -distance,
                    ))

    def _unindexed(self, outgoing: bool) -> list[DGEdge[Instruction]]:
        if outgoing and not self._indexed_out and self._edges:
            STATS.count("loop.ldg_out_maps")
        return super()._unindexed(outgoing)

    # -- loop-carried classification ----------------------------------------------
    def _register_dep_carried(self, src: Instruction, dst: Instruction) -> bool:
        """A register dependence is carried iff it flows around the back edge.

        In SSA that happens exactly when the consumer is a header phi and the
        producer reaches it via a latch edge.
        """
        if not isinstance(dst, Phi) or dst.parent is not self.loop.header:
            return False
        for value, pred in dst.incoming():
            if value is src and self.loop.contains_block(pred):
                return True
        return False

    # -- region boundary -------------------------------------------------------------
    def live_in_values(self) -> list[Value]:
        """Values defined outside the loop but used inside (plus arguments)."""
        result: list[Value] = []
        seen: set[int] = set()
        for inst in self.loop.instructions():
            for operand in inst.operands:
                if isinstance(operand, Constant):
                    continue
                if isinstance(operand, Instruction) and self.loop.contains(operand):
                    continue
                if operand.type.is_void() or str(operand.type) == "label":
                    continue
                if isinstance(operand, (Instruction, Argument)) and id(operand) not in seen:
                    seen.add(id(operand))
                    result.append(operand)
        return result

    def live_out_values(self) -> list[Instruction]:
        """Values defined inside the loop and used after it."""
        result: list[Instruction] = []
        seen: set[int] = set()
        for inst in self.loop.instructions():
            for user in inst.users():
                if isinstance(user, Instruction) and not self.loop.contains(user):
                    if id(inst) not in seen:
                        seen.add(id(inst))
                        result.append(inst)
                    break
        return result

    def loop_carried_edges(self) -> list[DGEdge[Instruction]]:
        return [e for e in self._edges if e.is_loop_carried]


def _reverse_memory_kind(src: Instruction, dst: Instruction) -> str | None:
    """Dependence kind for a reversed memory edge ``src -> dst``."""
    if src.may_write_memory() and dst.may_read_memory():
        return "RAW"
    if src.may_write_memory() and dst.may_write_memory():
        return "WAW"
    if src.may_read_memory() and dst.may_write_memory():
        return "WAR"
    return None


def pointer_operand(inst: Instruction) -> Value | None:
    """The address a load or store accesses; None for anything else."""
    if isinstance(inst, Load):
        return inst.pointer
    if isinstance(inst, Store):
        return inst.pointer
    return None


