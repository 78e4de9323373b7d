"""The PDG's shard builder: one function's dependence edges, computed.

:class:`~repro.core.pdg.PDG` calls :func:`build_shard` for a function
whose shard is neither built nor adopted.  This is the only code that
asks the alias analysis about a pair of instructions, so a process whose
every shard is adopted (from the artifact cache or from
``noelle-meta-pdg-embed`` metadata) never imports it, nor the points-to
and alias analyses it reads.

A shard is built in one pass over its node table: register, memory and
control edges are constructed from the nodes it holds and appended to
the shard's edge list, with no `add_edge` call.  Within the shard, the
all-pairs memory loop is pruned by partitioning the memory instructions
into points-to *regions* (connected components of overlapping
footprints): two instructions in different regions are provably disjoint
under the configured AA, so their pair is never queried.  The Figure 3
counters keep paper-comparable semantics — every pruned pair that would
have been queried is counted as queried *and* disproved, which is
exactly what the alias analysis would have concluded.

The memory pair loop walks a reader only past the later writers
(read-read pairs carry no dependence), answers a pair from the alias
analysis's memo itself and calls into the analysis only on a miss; every
such query still visits the ``alias_query`` fault site.  Its counts (the
Figure 3 ones, the ``aa.*`` queries and memo hits, the ``deptest.pdg_*``
prunings) are kept in locals and added to the shard, the graph and
``STATS`` once, when the loop ends — by an injected fault too.
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
from ..ir.instructions import Call, Instruction
from ..ir.module import Function
from ..perf import STATS, gc_paused
from ..robust.faults import checkpoint as _fault_checkpoint
from .depgraph import DGEdge, DGNode
from .pdg import PDG, _Shard, pointer_operand

if TYPE_CHECKING:
    from ..analysis.deptest import FunctionDepTest


def build_shard(pdg: PDG, fn: Function) -> None:
    """Build ``fn``'s shard of ``pdg``: its nodes, then its register,
    memory and control edges.  Calls the graph's alias-analysis supplier
    first if it has not been called yet."""
    from ..analysis.deptest import FunctionDepTest, deptest_enabled

    if not isinstance(pdg.aa, AliasAnalysis):
        pdg.aa = pdg.aa()
    with STATS.timer("pdg.build_shard"), gc_paused:
        instructions = list(fn.instructions())
        shard, table = pdg._open_shard(fn, instructions)
        try:
            _add_register_dependences(pdg, instructions, table, shard.edges)
            _add_memory_dependences(
                pdg, shard, instructions,
                FunctionDepTest(fn) if deptest_enabled() else None,
            )
            _add_control_dependences(pdg, fn, shard.edges)
        finally:
            pdg._building = None


def _add_register_dependences(
    pdg: PDG, instructions: list[Instruction],
    table: list[DGNode[Instruction]], edges: list[DGEdge[Instruction]],
) -> None:
    # The node table is keyed by the ids of live instructions, so an
    # operand's id is in it only if the operand is one of them.
    node_of = pdg._nodes.get
    append = edges.append
    for inst, node in zip(instructions, table):
        for operand in inst.operands:
            src = node_of(id(operand))
            if src is not None:
                append(DGEdge(src, node, "data", "RAW", False, True))


def _add_memory_dependences(
    pdg: PDG, shard: _Shard, instructions: list[Instruction],
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
    nodes = pdg._nodes
    accesses = [_Access(inst, nodes[id(inst)]) for inst in memory_insts]
    regions = (
        _partition_regions(pdg, accesses)
        if pdg.partition
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
    aa = pdg.aa
    verdict_of = aa.memo.verdicts.get
    answer = aa.answer
    no_alias = AliasResult.NO_ALIAS
    must_alias = AliasResult.MUST_ALIAS
    append = shard.edges.append
    queries = disproved = _pruned_pairs(groups, accesses)
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
        pdg._memory_queries += queries
        pdg._memory_disproved += disproved
        if aa_queries:
            STATS.count(aa.queries_counter, aa_queries)
        if aa_hits:
            STATS.count(aa.hits_counter, aa_hits)
        if tested_pairs:
            STATS.count("deptest.pdg_pairs_pruned", tested_pairs)
            STATS.count("deptest.pdg_edges_pruned", tested_edges)


def _pruned_pairs(
    groups: dict[int, list[int]], accesses: list["_Access"]
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


def _partition_regions(pdg: PDG, accesses: list["_Access"]) -> list[int | None]:
    """Union overlapping memory footprints into region labels.

    Returns one label per instruction; ``None`` marks a wildcard (a
    call, or a pointer the AA has no footprint for) that must be
    paired against everything.  Two instructions with different
    (non-None) labels have provably disjoint footprints under
    the graph's alias analysis.
    """
    footprints = [_footprint(pdg, access) for access in accesses]
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


def _footprint(pdg: PDG, access: "_Access") -> list[int] | None:
    """Object ids the instruction may touch; None when unbounded.

    Only the two known AA implementations are partitioned — for any
    other ``AliasAnalysis`` everything stays wildcard so no pair is
    pruned that the analysis might not have disproved.
    """
    if access.address is None:
        return None  # calls: mod/ref reasoning happens per pair
    obj = access.address.obj
    aa = pdg.aa
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
    pdg: PDG, fn: Function, edges: list[DGEdge[Instruction]]
) -> None:
    from ..analysis.controldep import ControlDependence

    nodes = pdg._nodes
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
