"""Dependence edges are shared facts, and the graphs holding them are
acyclic object graphs.

* A loop dependence graph links its shard's edges: every edge it did not
  re-classify *is* the shard's edge object; only the carried edges and
  their reversed twins are its own.  Projections link, never copy.
* Nothing points back from an edge or a node to a graph, so a dropped
  loop dependence graph and an invalidated shard are freed by reference
  counting alone — no cyclic-collector pass needed.
* A PDG's edges live in its shards, and ``PDG.edges()`` lists them in
  the order a module-wide list appended-to by builds and filtered by
  invalidations would have.
* Real tool runs keep that promise: after LICM, TimeSqueezer and DOALL,
  invalidating every function and dropping the facade leaves the
  collector no analysis object to find.
"""

import gc
import weakref
from collections import Counter

import pytest

from repro.analysis.loopinfo import LoopInfo, NaturalLoop
from repro.analysis.scev import ScalarEvolution
from repro.core.depgraph import DGEdge, DGNode
from repro.core.forest import Forest, TreeNode
from repro.core.invariants import InvariantManager
from repro.core.loop import Loop
from repro.core.noelle import Noelle
from repro.core.pdg import LoopDG
from repro.core.sccdag import SCC, SCCDAG
from repro.robust.passmanager import PassManager
from repro.workloads import all_workloads, get
from tests.conftest import insert_dead_add


def shard_edges(pdg, fn):
    return pdg._shards[id(fn)].edges


def fact(edge):
    return (edge.src.value, edge.dst.value, edge.kind, edge.data_kind,
            edge.is_memory, edge.is_must)


@pytest.mark.parametrize("workload", all_workloads(), ids=lambda w: w.name)
def test_ldg_links_every_unchanged_edge_of_its_shard(workload):
    noelle = Noelle(workload.compile())
    pdg = noelle.pdg()
    for loop in noelle.loops():
        fn = loop.structure.function
        ldg = loop.dependence_graph
        owned = {id(edge) for edge in shard_edges(pdg, fn)}
        inside = {id(inst) for inst in loop.natural_loop.instructions()}
        touching = [
            edge for edge in shard_edges(pdg, fn)
            if id(edge.src.value) in inside or id(edge.dst.value) in inside
        ]
        # Walk the LDG against the shard's edges touching the loop, in
        # order: each is either linked (the same object) or re-created as
        # carried, and a carried memory edge may be followed by its
        # reversed twin.  Nothing else is in the LDG.
        k = 0
        for edge in ldg.edges():
            base = touching[k] if k < len(touching) else None
            if edge is base:
                assert not edge.is_loop_carried
                k += 1
                continue
            assert edge.is_loop_carried and id(edge) not in owned
            assert ldg.node_of(edge.src.value) is edge.src
            if base is not None and fact(edge) == fact(base):
                k += 1
                continue
            previous = touching[k - 1]
            assert edge.is_memory and previous.is_memory
            assert edge.src.value is previous.dst.value
            assert edge.dst.value is previous.src.value
        assert k == len(touching)


def test_a_linked_edge_endpoint_describes_the_pdg_not_the_loop():
    # The trap the DGEdge docstring names: a linked edge's nodes are the
    # PDG's (all internal there); only the LDG knows what is external.
    noelle = Noelle(get("crc32").compile())
    loop = next(l for l in noelle.loops() if l.dependence_graph.external_nodes())
    ldg = loop.dependence_graph
    boundary = [
        edge for edge in ldg.edges()
        if not ldg.node_of(edge.src.value).is_internal
    ]
    assert boundary
    assert all(edge.src.is_internal for edge in boundary)


def test_projections_link_the_shard_edges():
    noelle = Noelle(get("crc32").compile())
    pdg = noelle.pdg()
    for fn in noelle.module.defined_functions():
        fdg = pdg.function_dependence_graph(fn)
        assert all(
            a is b for a, b in zip(fdg.edges(), shard_edges(pdg, fn), strict=True)
        )


def test_dropped_ldg_and_invalidated_shard_are_freed_by_refcount():
    noelle = Noelle(get("crc32").compile())
    pdg = noelle.pdg()
    loop = next(iter(noelle.loops()))
    fn = loop.structure.function
    gc.collect()
    gc.disable()
    try:
        ldg = pdg.loop_dependence_graph(loop.natural_loop)
        assert ldg.num_edges() > 0
        ldg_ref = weakref.ref(ldg)
        del ldg
        assert ldg_ref() is None
        # ...with its nodes and the edges it created: no cycle was left
        # for the collector to find.
        assert gc.collect() == 0

        shard_ref = weakref.ref(pdg._shards[id(fn)])
        pdg.invalidate_function(fn)
        assert shard_ref() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


#: What no tool run may leave for the cyclic collector.  The IR and the
#: engine's CompiledFunction <-> namespace pair are cycles by design.
ANALYSIS_TYPES = (
    Loop, LoopDG, SCCDAG, SCC, DGEdge, DGNode, TreeNode, Forest,
    NaturalLoop, LoopInfo, InvariantManager, ScalarEvolution,
)


@pytest.mark.parametrize("workload", all_workloads(), ids=lambda w: w.name)
def test_tool_runs_leave_no_analysis_for_the_collector(workload):
    module = workload.compile()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        noelle = Noelle(module)
        manager = PassManager(noelle, fault_plan=None, checks=False)
        for name, options in (
            ("licm", {}), ("timesqueezer", {}), ("doall", {"num_cores": 8}),
        ):
            assert manager.run_registered(name, **options).ok
        for fn in module.defined_functions():
            noelle.invalidate(fn)
        del noelle, manager
        gc.collect()
        left = Counter(
            type(obj).__name__ for obj in gc.garbage
            if isinstance(obj, ANALYSIS_TYPES)
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert left == Counter()


def test_pdg_edges_keep_the_module_list_order_across_invalidation():
    module = get("crc32").compile()
    noelle = Noelle(module)
    pdg = noelle.pdg()
    model = pdg.edges()  # what a module-wide list would hold

    def same(listed, expected):
        return len(listed) == len(expected) and all(
            a is b for a, b in zip(listed, expected)
        )

    functions = list(module.defined_functions())
    for fn in (functions[len(functions) // 2], functions[0], functions[-1]):
        insert_dead_add(fn)
        dropped = {id(edge) for edge in shard_edges(pdg, fn)}
        noelle.invalidate(fn)
        model = [edge for edge in model if id(edge) not in dropped]
        listed = pdg.edges()  # rebuilds fn's shard, last
        model += shard_edges(pdg, fn)
        assert same(listed, model)
    assert same(pdg.edges(), model)
