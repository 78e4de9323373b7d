"""Sharded-PDG semantics: laziness, pruning, persistence, and per-function
invalidation.

Four guarantees the performance work must not bend:

* a lazily-sharded PDG is edge-for-edge identical to the eager full
  build, with and without the points-to pair pruning;
* the Figure 3 counters (memory pairs queried/disproved) are unchanged
  by pruning — pruned pairs count as queried-and-disproved;
* a shard exported and adopted again — carried by module metadata or by
  the artifact cache — is the shard that was built, and adopting it runs
  no analysis;
* ``Noelle.invalidate(fn)`` rebuilds only the mutated function's shard
  and keeps the whole-module analyses warm, wherever the PDG came from.
"""

from collections import Counter

import pytest

from repro import cache, ir
from repro.analysis.aa import BasicAliasAnalysis
from repro.analysis.pointsto import AndersenAliasAnalysis
from repro.core.noelle import Noelle
from repro.core.pdg import PDG
from repro.ir.builder import build_function
from repro.perf import STATS
from repro.tools.meta_pdg_embed import (
    PDG_SHARDS_KEY,
    embed_pdg,
    load_embedded_pdg,
)
from repro.tools.pipeline import load
from repro.workloads import all_workloads
from tests.conftest import insert_dead_add


def edge_multiset(pdg):
    """A comparable multiset of the PDG's edges, keyed by instruction id."""
    return Counter(
        (
            id(edge.src.value),
            id(edge.dst.value),
            edge.kind,
            edge.data_kind,
            edge.is_memory,
            edge.is_must,
        )
        for edge in pdg.edges()
    )


def positional_edges(pdg):
    """The PDG's edges keyed by (function, instruction position), so two
    modules that print the same can be compared."""
    position = {
        id(inst): (fn.name, index)
        for fn in pdg.module.defined_functions()
        for index, inst in enumerate(fn.instructions())
    }
    return Counter(
        (
            position[id(edge.src.value)],
            position[id(edge.dst.value)],
            edge.kind,
            edge.data_kind,
            edge.is_memory,
            edge.is_must,
        )
        for edge in pdg.edges()
    )


def two_function_module():
    """Two independent memory-touching functions in one module."""
    module = ir.Module("twofn")
    for name in ("first", "second"):
        fn = module.add_function(name, ir.FunctionType(ir.I64, []), [])
        builder, _entry = build_function(fn)
        cell = builder.alloca(ir.I64, f"{name}.cell")
        builder.store(ir.const_int(7), cell)
        loaded = builder.load(cell, f"{name}.val")
        builder.ret(loaded)
    ir.verify_module(module)
    return module


# -- lazy/eager and pruned/unpruned equivalence ---------------------------------------


@pytest.mark.parametrize("workload", all_workloads(), ids=lambda w: w.name)
def test_lazy_sharded_pdg_matches_eager_build(workload):
    module = workload.compile()
    aa = AndersenAliasAnalysis(module)
    eager = PDG(module, aa)
    eager.materialize()
    lazy = PDG(module, aa)
    # Drive the lazy graph the way tools do: one function at a time.
    for fn in module.defined_functions():
        lazy.function_dependence_graph(fn)
    assert edge_multiset(lazy) == edge_multiset(eager)
    assert lazy.num_nodes() == eager.num_nodes()
    assert lazy.memory_queries == eager.memory_queries
    assert lazy.memory_disproved == eager.memory_disproved


@pytest.mark.parametrize("workload", all_workloads(), ids=lambda w: w.name)
@pytest.mark.parametrize("aa_factory", [
    pytest.param(lambda m: BasicAliasAnalysis(), id="basic"),
    pytest.param(lambda m: AndersenAliasAnalysis(m), id="andersen"),
])
def test_partition_pruning_preserves_edges_and_fig3_counters(workload, aa_factory):
    module = workload.compile()
    aa = aa_factory(module)
    pruned = PDG(module, aa, partition=True)
    exact = PDG(module, aa, partition=False)
    assert edge_multiset(pruned) == edge_multiset(exact)
    # Figure 3 semantics: every pruned pair still counts as one query
    # that the alias analysis disproved.
    assert pruned.memory_queries == exact.memory_queries
    assert pruned.memory_disproved == exact.memory_disproved


# -- the shard codec, through both carriers ---------------------------------------------


def _through_metadata(workload, source_pdg):
    """Embed, ship the module as ``.nir`` bytes, load the embedding."""
    embed_pdg(source_pdg.module, source_pdg)
    module = ir.read_module(ir.write_module(source_pdg.module))
    return load(module)


def _through_cache(workload, source_pdg):
    """Publish from one facade, attach another over a fresh decode."""
    module = source_pdg.module
    publisher = Noelle(module)
    publisher.pdg().adopt_shards({
        fn.name: source_pdg.export_shard(fn)
        for fn in module.defined_functions()
    })
    cache.attach(publisher)
    cache.publish_artifacts(source_pdg.module, publisher)
    return load(cache.cached_compile(workload.source, workload.name))


@pytest.mark.parametrize("workload", all_workloads(), ids=lambda w: w.name)
@pytest.mark.parametrize("carrier", [_through_metadata, _through_cache],
                         ids=["metadata", "cache"])
def test_adopted_shards_equal_the_built_ones(workload, carrier, tmp_path,
                                             monkeypatch):
    monkeypatch.setenv("NOELLE_CACHE_DIR", str(tmp_path / "cache"))
    source_module = cache.cached_compile(workload.source, workload.name)
    source = PDG(source_module, AndersenAliasAnalysis(source_module))
    source.materialize()

    solves = STATS.get("pointsto.solves")
    builds = STATS.get("pdg.shard_builds")
    noelle = carrier(workload, source)
    adopted = noelle.pdg()
    assert adopted.module is not source_module
    assert positional_edges(adopted) == positional_edges(source)
    assert adopted.num_nodes() == source.num_nodes()
    assert adopted.memory_queries == source.memory_queries
    assert adopted.memory_disproved == source.memory_disproved
    # Every shard was adopted; the alias analysis was never instantiated.
    assert STATS.get("pdg.shard_builds") == builds
    assert STATS.get("pointsto.solves") == solves
    assert noelle._aa is None

    # ...until a shard has to be rebuilt: exactly one, with one solve.
    victim = next(iter(adopted.module.defined_functions()))
    noelle.invalidate(victim)
    assert noelle.pdg() is adopted
    assert positional_edges(adopted) == positional_edges(source)
    assert STATS.get("pdg.shard_builds") == builds + 1
    assert STATS.get("pointsto.solves") == solves + 1


def no_alias_analysis():
    raise AssertionError("adopting a shard must not run the alias analysis")


def test_a_payload_that_does_not_fit_is_refused_and_built_on_demand():
    module = two_function_module()
    source = PDG(module, AndersenAliasAnalysis(module))
    first, second = module.defined_functions()
    good = source.export_shard(first)
    for bad in (
        {**good, "ninsts": good["ninsts"] + 1},
        {**good, "edges": good["edges"] + [(0, good["ninsts"], "control",
                                            None, False, False)]},
        {**good, "edges": [(-1, 0, "control", None, False, False)]},
        {**good, "edges": [(0, 1, "data", "RAR", False, True)]},
        {**good, "edges": [(0, 1)]},
        {"fn": "first"},
        None,
    ):
        target = PDG(module, no_alias_analysis)
        assert not target.adopt_shard(first, bad)
        assert target.built_functions() == []
        assert target._nodes == {} and target._out == {} and target._in == {}
    # Through a carrier: the one function whose payload was refused
    # builds on demand, the other stays adopted.
    embed_pdg(module, source)
    module.metadata[PDG_SHARDS_KEY]["second"]["ninsts"] += 1
    builds = STATS.get("pdg.shard_builds")
    loaded = load_embedded_pdg(module)
    assert [fn.name for fn in loaded.built_functions()] == ["first"]
    assert edge_multiset(loaded) == edge_multiset(source)
    assert STATS.get("pdg.shard_builds") == builds + 1
    # Adopting over a built shard would double its edges: refused too.
    assert not loaded.adopt_shard(first, good)
    assert loaded.export_shard(first) == good


@pytest.mark.parametrize("malformed", [
    pytest.param(lambda n: {"edge": (0, 1, "memory", None, False, False)},
                 id="bad-kind"),
    pytest.param(lambda n: {"edge": (0, 1, "data", "RAR", True, True)},
                 id="bad-data-kind"),
    pytest.param(lambda n: {"edge": (0, n, "data", "RAW", False, True)},
                 id="endpoint-out-of-range"),
    pytest.param(lambda n: {"edge": (0, 1, "data", "RAW")},
                 id="short-tuple"),
    pytest.param(lambda n: {"queries": "many"}, id="non-int-queries"),
])
def test_a_malformed_record_is_refused_whole(malformed):
    # The bad record follows every good edge, so a refusal that kept
    # what it had installed so far would leave a half-built shard.
    module = two_function_module()
    first, _second = module.defined_functions()
    good = PDG(module, AndersenAliasAnalysis(module)).export_shard(first)
    assert good["edges"]
    fault = malformed(good["ninsts"])
    payload = {**good, "edges": list(good["edges"])}
    if "edge" in fault:
        payload["edges"].append(fault["edge"])
    else:
        payload["queries"] = fault["queries"]
    supplied = []

    def supplier():
        supplied.append(True)
        return AndersenAliasAnalysis(module)

    target = PDG(module, supplier)
    assert not target.adopt_shard(first, payload)
    assert target.built_functions() == []
    assert target._nodes == {} and target._out == {} and target._in == {}
    assert target._pending_out == {} and target._pending_in == {}
    assert supplied == []
    # The function then builds on demand, to the shard that was exported.
    builds = STATS.get("pdg.shard_builds")
    assert target.export_shard(first) == good
    assert STATS.get("pdg.shard_builds") == builds + 1
    assert target.memory_queries == sum(
        target.export_shard(fn)["queries"] for fn in module.defined_functions()
    )


# -- per-function invalidation --------------------------------------------------------


def test_invalidate_fn_rebuilds_only_the_mutated_shard():
    noelle = Noelle(two_function_module())
    pdg = noelle.pdg()
    pdg.materialize()
    first, second = list(noelle.module.defined_functions())

    builds_before = STATS.get("pdg.shard_builds")
    insert_dead_add(first)
    noelle.invalidate(first)
    assert noelle.pdg() is pdg  # the graph container survives
    pdg.materialize()
    assert STATS.get("pdg.shard_builds") - builds_before == 1

    # The untouched function's shard never left the graph.
    assert {fn.name for fn in pdg.built_functions()} == {"first", "second"}
    node_names = {node.value.name for node in pdg.nodes() if node.value.name}
    assert "dead" in node_names


def test_invalidate_fn_keeps_whole_module_analyses_warm():
    noelle = Noelle(two_function_module())
    aa = noelle.alias_analysis()
    pointsto = noelle.points_to()
    noelle.pdg().materialize()
    first = next(iter(noelle.module.defined_functions()))

    insert_dead_add(first)
    noelle.invalidate(first)
    assert noelle.alias_analysis() is aa
    assert noelle.points_to() is pointsto

    # The full drop is still available as the conservative escape hatch.
    noelle.invalidate()
    assert noelle.alias_analysis() is not aa


def test_invalidate_fn_matches_fresh_build_after_mutation():
    module = two_function_module()
    noelle = Noelle(module)
    pdg = noelle.pdg()
    pdg.materialize()
    first = next(iter(module.defined_functions()))

    insert_dead_add(first)
    noelle.invalidate(first)
    rebuilt = noelle.pdg()
    fresh = PDG(module, AndersenAliasAnalysis(module))
    assert edge_multiset(rebuilt) == edge_multiset(fresh)
    assert rebuilt.memory_queries == fresh.memory_queries
    assert rebuilt.memory_disproved == fresh.memory_disproved


def test_invalidate_resets_dataflow_engine_and_environment_builder():
    # Regression: these two caches used to survive a full invalidation.
    noelle = Noelle(two_function_module())
    dfe = noelle.dataflow_engine()
    env = noelle.environment_builder()
    noelle.invalidate()
    assert noelle._dfe is None
    assert noelle._env_builder is None
    assert noelle.dataflow_engine() is not dfe
    assert noelle.environment_builder() is not env


def test_embedded_pdg_invalidates_per_function():
    # A PDG that noelle-load adopted from metadata is an ordinary PDG:
    # invalidate(fn) drops one shard, the next query rebuilds exactly
    # that one, and the result equals a fresh build of the mutated code.
    module = two_function_module()
    embed_pdg(module)
    noelle = load(module)
    adopted = noelle.pdg()
    first, second = module.defined_functions()
    builds = STATS.get("pdg.shard_builds")

    insert_dead_add(first)
    noelle.invalidate(first)
    assert noelle.pdg() is adopted
    assert adopted.built_functions() == [second]
    assert STATS.get("pdg.shard_builds") == builds  # nothing rebuilt yet
    assert "dead" in {n.value.name for n in adopted.nodes()}
    assert STATS.get("pdg.shard_builds") == builds + 1

    fresh = PDG(module, AndersenAliasAnalysis(module))
    assert edge_multiset(adopted) == edge_multiset(fresh)
    assert adopted.memory_queries == fresh.memory_queries
    assert adopted.memory_disproved == fresh.memory_disproved


def test_embedded_pdg_round_trips_through_shards():
    module = two_function_module()
    original = embed_pdg(module)
    loaded = load_embedded_pdg(module)
    assert edge_multiset(loaded) == edge_multiset(original)
    assert loaded.memory_queries == original.memory_queries
    assert loaded.memory_disproved == original.memory_disproved


def test_noelle_load_adopts_embedded_pdg():
    module = two_function_module()
    embedded = embed_pdg(module)
    builds = STATS.get("pdg.shard_builds")
    solves = STATS.get("pointsto.solves")
    noelle = load(module)
    assert edge_multiset(noelle.pdg()) == edge_multiset(embedded)
    # The adopted PDG is the rehydrated one, not a recomputation: no
    # shard was built and no alias analysis was run to get it.
    assert noelle.pdg() is not embedded
    assert STATS.get("pdg.shard_builds") == builds
    assert STATS.get("pointsto.solves") == solves
