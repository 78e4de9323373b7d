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

A shard is built in one pass over its node table: register, memory and
control edges are constructed from the nodes it holds and appended to
the shard's edge list, with no `add_edge` call.  The memory pair loop
walks a reader only past the later writers (read-read pairs carry no
dependence), answers a pair from the alias analysis's memo itself and
calls into the analysis only on a miss; every such query still visits the
``alias_query`` fault site.  Its counts (the Figure 3 ones, the
``aa.*`` queries and memo hits, the ``deptest.pdg_*`` prunings) are kept
in locals and added to the shard, the graph and ``STATS`` once, when the
loop ends — by an injected fault too.

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
from typing import TYPE_CHECKING, Iterable, Iterator

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
from ..robust.faults import checkpoint as _fault_checkpoint
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

    def _build_function(self, fn: Function) -> None:
        from ..analysis.deptest import FunctionDepTest, deptest_enabled

        instructions = list(fn.instructions())
        shard, table = self._open_shard(fn, instructions)
        try:
            self._add_register_dependences(instructions, table, shard.edges)
            self._add_memory_dependences(
                shard, instructions,
                FunctionDepTest(fn) if deptest_enabled() else None,
            )
            self._add_control_dependences(fn, shard.edges)
        finally:
            self._building = None

    def _add_register_dependences(
        self, instructions: list[Instruction],
        table: list[DGNode[Instruction]], edges: list[DGEdge[Instruction]],
    ) -> None:
        # The node table is keyed by the ids of live instructions, so an
        # operand's id is in it only if the operand is one of them.
        node_of = self._nodes.get
        append = edges.append
        for inst, node in zip(instructions, table):
            for operand in inst.operands:
                src = node_of(id(operand))
                if src is not None:
                    append(DGEdge(src, node, "data", "RAW", False, True))

    def _add_memory_dependences(
        self, shard: _Shard, instructions: list[Instruction],
        deptest: FunctionDepTest | None,
    ) -> None:
        """Query every surviving memory pair and add its edges: one loop
        for both alias analyses, with ``NOELLE_DEPTEST=1`` or without.

        A pair of addresses is looked up in the alias analysis's memo
        here, under the key `AliasMemo.key_of` would compute; only a miss
        calls into the analysis.  Each such query still visits the
        ``alias_query`` fault site, in pair order.  The counts — the
        Figure 3 ones and the ``aa.*`` / ``deptest.pdg_*`` ones — are
        tallied in locals and added once, when the loop ends, however it
        ends.
        """
        memory_insts = [i for i in instructions if i.touches_memory()]
        total = len(memory_insts)
        if total < 2:
            return
        # Classify each instruction once: its read/write flags, address
        # and the address's underlying object serve every pair it is in.
        nodes = self._nodes
        accesses = [_Access(inst, nodes[id(inst)]) for inst in memory_insts]
        regions = (
            self._partition_regions(accesses)
            if self.partition
            else [None] * total
        )
        # Each region's members and the wildcards (calls and untracked
        # pointers, which overlap anything), in program order; then the
        # same lists holding writers only, which are all a reader pairs
        # with: read-read pairs carry no dependence.
        groups: dict[int, list[int]] = {}
        wildcard: list[int] = []
        group_writers: dict[int, list[int]] = {}
        wildcard_writers: list[int] = []
        writers: list[int] = []
        for index, region in enumerate(regions):
            if region is None:
                wildcard.append(index)
            else:
                groups.setdefault(region, []).append(index)
            if accesses[index].writes:
                writers.append(index)
                if region is None:
                    wildcard_writers.append(index)
                else:
                    group_writers.setdefault(region, []).append(index)
        aa = self.aa
        verdict_of = aa.memo.verdicts.get
        answer = aa.answer
        no_alias = AliasResult.NO_ALIAS
        must_alias = AliasResult.MUST_ALIAS
        append = shard.edges.append
        queries = disproved = self._pruned_pairs(groups, accesses)
        aa_queries = aa_hits = tested_pairs = tested_edges = 0
        try:
            # Enumerate the surviving pairs in the seed's program order: an
            # instruction pairs with later members of its own region and
            # with later wildcards (a wildcard, with every later one).
            for i in range(total):
                first = accesses[i]
                region = regions[i]
                reads_a, writes_a = first.reads, first.writes
                later: Iterable[int]
                if not writes_a:
                    later = (
                        writers[bisect_right(writers, i):] if region is None
                        else _merged_after(group_writers.get(region, []),
                                           wildcard_writers, i)
                    )
                elif region is None:
                    later = range(i + 1, total)
                else:
                    later = _merged_after(groups[region], wildcard, i)
                address_a, node_a = first.address, first.node
                obj_a, pointer_a = first.obj_id, first.pointer_id
                for j in later:
                    second = accesses[j]
                    writes_b = second.writes
                    queries += 1
                    address_b = second.address
                    if address_a is not None and address_b is not None:
                        if obj_a == second.obj_id:
                            ka, kb = pointer_a, second.pointer_id
                        else:
                            ka, kb = obj_a, second.obj_id
                        key = (ka, kb) if ka <= kb else (kb, ka)
                        _fault_checkpoint("alias_query")
                        aa_queries += 1
                        verdict = verdict_of(key)
                        if verdict is None:
                            verdict = answer(address_a, address_b, key)
                        else:
                            aa_hits += 1
                        if verdict is no_alias:
                            disproved += 1
                            continue
                        is_must = verdict is must_alias
                    elif _calls_apart(aa, first, second):
                        disproved += 1
                        continue
                    else:
                        is_must = False
                    reads_b = second.reads
                    if deptest is not None and deptest.proves_independent(
                        first.inst, second.inst
                    ):
                        # The symbolic dependence tests disproved the pair
                        # the alias analysis could not: keep Figure 3
                        # semantics (queried and disproved), add no edges.
                        disproved += 1
                        tested_pairs += 1
                        tested_edges += (
                            int(writes_a and reads_b)
                            + int(writes_a and writes_b)
                            + int(reads_a and writes_b)
                        )
                        continue
                    node_b = second.node
                    if writes_a and reads_b:
                        append(DGEdge(node_a, node_b, "data", "RAW", True,
                                      is_must))
                    if writes_a and writes_b:
                        append(DGEdge(node_a, node_b, "data", "WAW", True,
                                      is_must))
                    if reads_a and writes_b:
                        append(DGEdge(node_a, node_b, "data", "WAR", True,
                                      is_must))
        finally:
            shard.queries = queries
            shard.disproved = disproved
            self._memory_queries += queries
            self._memory_disproved += disproved
            if aa_queries:
                STATS.count(aa.queries_counter, aa_queries)
            if aa_hits:
                STATS.count(aa.hits_counter, aa_hits)
            if tested_pairs:
                STATS.count("deptest.pdg_pairs_pruned", tested_pairs)
                STATS.count("deptest.pdg_edges_pruned", tested_edges)

    def _pruned_pairs(
        self, groups: dict[int, list[int]], accesses: list["_Access"]
    ) -> int:
        """How many queries the cross-region pairs, which are never
        enumerated, stand for (``pdg.pairs_pruned`` counts the pairs).

        Each such pair is provably NO_ALIAS under the configured AA, so
        the seed's loop would have counted it as queried and disproved
        (when at least one side writes) — keep those semantics exactly.
        """
        if len(groups) < 2:
            return 0
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
        STATS.count("pdg.pairs_pruned", cross_pairs)
        return cross_pairs - cross_read_only

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

    def _add_control_dependences(
        self, fn: Function, edges: list[DGEdge[Instruction]]
    ) -> None:
        from ..analysis.controldep import ControlDependence

        nodes = self._nodes
        append = edges.append
        cd = ControlDependence(fn)
        for block in fn.blocks:
            controllers = cd.controlling_terminators(block)
            if not controllers:
                continue
            targets = [nodes[id(inst)] for inst in block.instructions]
            for term in controllers:
                src = nodes[id(term)]
                for dst in targets:
                    append(DGEdge(src, dst, "control"))

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
            shard, table = self._open_shard(fn, insts)
            append = shard.edges.append
            for src_i, dst_i, kind, data_kind, is_memory, is_must in (
                payload["edges"]
            ):
                if not (0 <= src_i < count and 0 <= dst_i < count):
                    raise ValueError("edge endpoint out of range")
                append(DGEdge(table[src_i], table[dst_i], kind, data_kind,
                              is_memory, is_must))
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
    """A memory instruction as one shard build pairs it: its node, its
    read/write flags and its address (None for calls) as the alias
    analysis reads it — stripped pointer, underlying object, slot offset
    — with the ids the memo key is made of, derived once per build."""

    __slots__ = ("inst", "node", "reads", "writes", "address", "obj_id",
                 "pointer_id")

    def __init__(self, inst: Instruction, node: DGNode[Instruction]):
        self.inst = inst
        self.node = node
        self.reads = inst.may_read_memory()
        self.writes = inst.may_write_memory()
        pointer = pointer_operand(inst)
        if pointer is None:
            self.address = self.obj_id = self.pointer_id = None
        else:
            self.address = Address(pointer)
            self.obj_id = id(self.address.obj)
            self.pointer_id = id(pointer)


def _calls_apart(aa: AliasAnalysis, first: _Access, second: _Access) -> bool:
    """For a pair with a call on one side at least: does mod/ref prove
    that the two touch disjoint memory?"""
    a, b = first.inst, second.inst
    if isinstance(a, Call) and second.address is not None:
        return aa.mod_ref(a, second.address.pointer) is ModRefResult.NO_MOD_REF
    if isinstance(b, Call) and first.address is not None:
        return aa.mod_ref(b, first.address.pointer) is ModRefResult.NO_MOD_REF
    if isinstance(a, Call) and isinstance(b, Call):
        return _calls_independent(aa, a, b)
    return False


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
