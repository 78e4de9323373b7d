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
not adopted, or is invalidated later, builds on demand.

Within a shard, the all-pairs memory loop is pruned by partitioning the
memory instructions into points-to *regions* (connected components of
overlapping footprints): two instructions in different regions are
provably disjoint under the configured AA, so their pair is never
queried.  The Figure 3 counters keep paper-comparable semantics — every
pruned pair that would have been queried is counted as queried *and*
disproved, which is exactly what the alias analysis would have concluded.

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

from bisect import bisect_right
from typing import TYPE_CHECKING, Iterator

from ..analysis.aa import (
    Address,
    AliasAnalysis,
    AliasResult,
    BasicAliasAnalysis,
    ModRefResult,
    is_identified_object,
)
from ..analysis.pointsto import AndersenAliasAnalysis
from ..ir.instructions import Call, Instruction, Load, Phi, Store
from ..ir.module import Function, Module
from ..ir.values import Argument, Constant, Value
from ..perf import STATS, gc_paused
from .depgraph import DependenceGraph, DGEdge, DGNode

if TYPE_CHECKING:  # imported where a shard or a loop's graph is built
    from ..analysis.deptest import DependenceTester, FunctionDepTest
    from ..analysis.loopinfo import NaturalLoop


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
        #: Per-shard symbolic dependence tester (NOELLE_DEPTEST=1 only);
        #: live only while its shard builds, so invalidation stays warm.
        self._deptest: FunctionDepTest | None = None

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
        if fn is None or self._building is not None:
            return
        if id(fn) in self._shards or fn.is_declaration():
            return
        if not isinstance(self.aa, AliasAnalysis):
            self.aa = self.aa()
        STATS.count("pdg.shard_builds")
        with STATS.timer("pdg.build_shard"), gc_paused:
            self._build_function(fn)

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
    # Whole-graph views build every shard first; per-value views build only
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

    def has_node(self, value) -> bool:
        self._ensure_value(value)
        return super().has_node(value)

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
    def _link(self, edge: DGEdge[Instruction]) -> None:
        """PDG edges are created only while a shard builds, and go into it."""
        self._building.edges.append(edge)

    def _open_shard(self, fn: Function, insts: list[Instruction]) -> _Shard:
        """Register ``fn``'s shard with its nodes and, so far, no edges;
        edges created from now on go into it."""
        shard = self._shards[id(fn)] = _Shard(fn)
        self._pending_out[id(fn)] = self._pending_in[id(fn)] = shard
        for inst in insts:
            self.add_node(inst, internal=True)
        shard.node_ids = [id(inst) for inst in insts]
        self._building = shard
        return shard

    def _build_function(self, fn: Function) -> None:
        from ..analysis.deptest import FunctionDepTest, deptest_enabled

        queries_before = self._memory_queries
        disproved_before = self._memory_disproved
        instructions = list(fn.instructions())
        shard = self._open_shard(fn, instructions)
        try:
            self._deptest = FunctionDepTest(fn) if deptest_enabled() else None
            self._add_register_dependences(instructions)
            self._add_memory_dependences(instructions)
            self._add_control_dependences(fn)
        finally:
            self._deptest = None
            self._building = None
        shard.queries = self._memory_queries - queries_before
        shard.disproved = self._memory_disproved - disproved_before

    def _add_register_dependences(self, instructions: list[Instruction]) -> None:
        nodes = self._nodes
        for inst in instructions:
            for operand in inst.operands:
                if isinstance(operand, Instruction) and id(operand) in nodes:
                    self.add_edge(
                        operand, inst, "data", "RAW", is_memory=False, is_must=True
                    )

    def _add_memory_dependences(self, instructions: list[Instruction]) -> None:
        memory_insts = [i for i in instructions if i.touches_memory()]
        total = len(memory_insts)
        if total < 2:
            return
        # Classify each instruction once: its read/write flags, address
        # and the address's underlying object serve every pair it is in.
        accesses = [_Access(inst) for inst in memory_insts]
        regions = (
            self._partition_regions(accesses)
            if self.partition
            else [None] * total
        )
        groups: dict[int, list[int]] = {}
        wildcard: list[int] = []
        for index, region in enumerate(regions):
            if region is None:
                wildcard.append(index)
            else:
                groups.setdefault(region, []).append(index)
        self._count_pruned_pairs(groups, accesses)
        # Enumerate the surviving pairs in the seed's program order: an
        # instruction pairs with later members of its own region and with
        # later wildcards (calls and untracked pointers overlap anything).
        for i in range(total):
            region = regions[i]
            if region is None:
                later: Iterator[int] = iter(range(i + 1, total))
            else:
                later = _merged_after(groups[region], wildcard, i)
            for j in later:
                self._memory_pair(accesses[i], accesses[j])

    def _count_pruned_pairs(
        self, groups: dict[int, list[int]], accesses: list["_Access"]
    ) -> None:
        """Account for cross-region pairs that are never enumerated.

        Each such pair is provably NO_ALIAS under the configured AA, so
        the seed's loop would have counted it as queried and disproved
        (when at least one side writes) — keep those semantics exactly.
        """
        if len(groups) < 2:
            return
        sum_n = sum_n2 = sum_ro = sum_ro2 = 0
        for members in groups.values():
            n = len(members)
            read_only = sum(1 for index in members if not accesses[index].writes)
            sum_n += n
            sum_n2 += n * n
            sum_ro += read_only
            sum_ro2 += read_only * read_only
        cross_pairs = (sum_n * sum_n - sum_n2) // 2
        cross_read_only = (sum_ro * sum_ro - sum_ro2) // 2
        pruned = cross_pairs - cross_read_only
        self._memory_queries += pruned
        self._memory_disproved += pruned
        STATS.count("pdg.pairs_pruned", cross_pairs)

    def _partition_regions(self, accesses: list["_Access"]) -> list[int | None]:
        """Union overlapping memory footprints into region labels.

        Returns one label per instruction; ``None`` marks a wildcard (a
        call, or a pointer the AA has no footprint for) that must be
        paired against everything.  Two instructions with different
        (non-None) labels have provably disjoint footprints under
        ``self.aa``.
        """
        footprints = [self._footprint(access) for access in accesses]
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            root = x
            while parent.setdefault(root, root) != root:
                root = parent[root]
            while parent[x] != root:  # path compression
                parent[x], x = root, parent[x]
            return root

        for footprint in footprints:
            if footprint:
                first = footprint[0]
                for obj_id in footprint[1:]:
                    parent[find(obj_id)] = find(first)
        return [find(fp[0]) if fp else None for fp in footprints]

    def _footprint(self, access: "_Access") -> list[int] | None:
        """Object ids the instruction may touch; None when unbounded.

        Only the two known AA implementations are partitioned — for any
        other ``AliasAnalysis`` everything stays wildcard so no pair is
        pruned that the analysis might not have disproved.
        """
        if access.address is None:
            return None  # calls: mod/ref reasoning happens per pair
        obj = access.address.obj
        aa = self.aa
        if type(aa) is AndersenAliasAnalysis:
            # The points-to set of an address is its underlying object's.
            pts = aa.pointsto.points_to(obj)
            if not pts or aa.pointsto.unknown in pts:
                return None
            return [id(target) for target in pts]
        if type(aa) is BasicAliasAnalysis:
            if is_identified_object(obj):
                return [id(obj)]
            return None
        return None

    def _memory_pair(self, access_a: "_Access", access_b: "_Access") -> None:
        """Add memory dependence edges between an instruction pair.

        The pair is unordered in program terms (they may execute in either
        order across loop iterations), so both directions are considered.
        """
        writes_a, writes_b = access_a.writes, access_b.writes
        if not writes_a and not writes_b:
            return  # read-read pairs carry no dependence
        reads_a, reads_b = access_a.reads, access_b.reads
        a, b = access_a.inst, access_b.inst
        self._memory_queries += 1
        result = self._query(access_a, access_b)
        if result is None:
            self._memory_disproved += 1
            return
        if self._deptest is not None and self._deptest.proves_independent(a, b):
            # The symbolic dependence tests disproved the pair the alias
            # analysis could not: keep Figure 3 semantics (queried and
            # disproved) and add no edges.
            self._memory_disproved += 1
            STATS.count("deptest.pdg_pairs_pruned")
            STATS.count(
                "deptest.pdg_edges_pruned",
                int(writes_a and reads_b)
                + int(writes_a and writes_b)
                + int(reads_a and writes_b),
            )
            return
        is_must = result
        if writes_a and reads_b:
            self.add_edge(a, b, "data", "RAW", is_memory=True, is_must=is_must)
        if writes_a and writes_b:
            self.add_edge(a, b, "data", "WAW", is_memory=True, is_must=is_must)
        if reads_a and writes_b:
            self.add_edge(a, b, "data", "WAR", is_memory=True, is_must=is_must)

    def _query(self, access_a: "_Access", access_b: "_Access") -> bool | None:
        """May a and b touch the same memory?  None=no, True=must, False=may."""
        a, b = access_a.inst, access_b.inst
        address_a, address_b = access_a.address, access_b.address
        if address_a is not None and address_b is not None:
            result = self.aa.alias_addresses(address_a, address_b)
            if result is AliasResult.NO_ALIAS:
                return None
            return result is AliasResult.MUST_ALIAS
        # At least one side is a call: use mod/ref.
        if isinstance(a, Call) and address_b is not None:
            if self.aa.mod_ref(a, address_b.pointer) is ModRefResult.NO_MOD_REF:
                return None
            return False
        if isinstance(b, Call) and address_a is not None:
            if self.aa.mod_ref(b, address_a.pointer) is ModRefResult.NO_MOD_REF:
                return None
            return False
        if isinstance(a, Call) and isinstance(b, Call):
            if _calls_independent(self.aa, a, b):
                return None
            return False
        return False

    def _add_control_dependences(self, fn: Function) -> None:
        from ..analysis.controldep import ControlDependence

        cd = ControlDependence(fn)
        for block in fn.blocks:
            controllers = cd.controlling_terminators(block)
            if not controllers:
                continue
            for term in controllers:
                for inst in block.instructions:
                    self.add_edge(term, inst, "control")

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
        """Install an `export_shard` payload as ``fn``'s shard.

        Runs no analysis.  Payloads arrive from outside the process
        (cache files, ``.nir`` metadata): one that does not fit ``fn`` as
        it is now — wrong instruction count, an index out of range, a
        malformed record — is refused, nothing changes, and the
        function builds on demand like any other.
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
            shard = self._open_shard(fn, insts)
            for src_i, dst_i, kind, data_kind, is_memory, is_must in (
                payload["edges"]
            ):
                if not (0 <= src_i < count and 0 <= dst_i < count):
                    raise ValueError("edge endpoint out of range")
                self.add_edge(
                    insts[src_i], insts[dst_i], kind, data_kind, is_memory,
                    is_must,
                )
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


def _merged_after(a: list[int], b: list[int], threshold: int) -> Iterator[int]:
    """Yield the ascending merge of two sorted lists, keeping > threshold."""
    ia = bisect_right(a, threshold)
    ib = bisect_right(b, threshold)
    len_a, len_b = len(a), len(b)
    while ia < len_a and ib < len_b:
        if a[ia] <= b[ib]:
            yield a[ia]
            ia += 1
        else:
            yield b[ib]
            ib += 1
    while ia < len_a:
        yield a[ia]
        ia += 1
    while ib < len_b:
        yield b[ib]
        ib += 1


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
        # endpoint is inside the loop is asked of ``internal_ids``.
        shard_edges = pdg._shard_of(loop.header.parent).edges
        pdg_nodes = pdg._nodes
        nodes = self._nodes
        edges = self._edges
        internal_ids: set[int] = set()
        for inst in loop.instructions():
            if id(inst) in pdg_nodes:
                nodes[id(inst)] = DGNode(inst, True)
            internal_ids.add(id(inst))
        deptest = deptest_enabled()
        tester = None
        for edge in shard_edges:
            src, dst = edge.src.value, edge.dst.value
            src_in = id(src) in internal_ids
            dst_in = id(dst) in internal_ids
            if not (src_in and dst_in):
                if src_in or dst_in:
                    outside = dst if src_in else src
                    if id(outside) not in nodes:
                        nodes[id(outside)] = DGNode(outside, False)
                    edges.append(edge)
                continue
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
                edges.append(edge)
                continue
            src_node, dst_node = nodes[id(src)], nodes[id(dst)]
            edges.append(DGEdge(src_node, dst_node, edge.kind, edge.data_kind,
                                edge.is_memory, edge.is_must, True, distance))
            # A carried memory conflict is direction-free: the later
            # instruction of one iteration conflicts with the earlier one of
            # the next.  The program-order PDG only has the forward edge, so
            # materialize the reverse carried edge here (e.g. the store→load
            # RAW of ``b[i] = b[i-1]``).
            if edge.is_memory:
                reverse_kind = _reverse_memory_kind(dst, src)
                if reverse_kind is not None:
                    edges.append(DGEdge(
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

    def has_loop_carried_data_dependences(self) -> bool:
        return any(e.is_data() for e in self.loop_carried_edges())


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


class _Access:
    """A memory instruction as one shard build pairs it: its read/write
    flags and its address (None for calls) as the alias analysis reads it
    — stripped pointer, underlying object, slot offset — derived once per
    build."""

    __slots__ = ("inst", "reads", "writes", "address")

    def __init__(self, inst: Instruction):
        self.inst = inst
        self.reads = inst.may_read_memory()
        self.writes = inst.may_write_memory()
        pointer = pointer_operand(inst)
        self.address = None if pointer is None else Address(pointer)


def _calls_independent(aa: AliasAnalysis, a: Call, b: Call) -> bool:
    """True when two calls provably touch disjoint memory (or none)."""
    if not isinstance(aa, AndersenAliasAnalysis):
        return False
    effects = aa._effects()
    ea = _call_footprint(effects, aa, a)
    eb = _call_footprint(effects, aa, b)
    if ea is None or eb is None:
        return False
    reads_a, writes_a = ea
    reads_b, writes_b = eb
    return not (
        (writes_a & (reads_b | writes_b)) or (writes_b & (reads_a | writes_a))
    )


def _call_footprint(effects, aa, call: Call):
    targets = aa.pointsto.callees_of(call)
    if not targets:
        return None
    reads: set = set()
    writes: set = set()
    for callee in targets:
        summary = effects.function_effects(callee)
        if summary is None or summary.unknown:
            return None
        reads |= summary.reads
        writes |= summary.writes
    return reads, writes
