"""Artifact cache: store semantics, hydration fidelity, invalidation."""

import json
import os
import pickle

import pytest

from repro import cache
from repro.cache.binding import ENGINE_PLANS, PDG_SHARDS
from repro.cache.store import KEY_SALT, ArtifactStore, _fn_filename
from repro.core.noelle import Noelle
from repro.frontend import compile_source
from repro.interp.engine import EPLAN_VERSION, EnginePlanError, engine_for
from repro.interp.interp import Interpreter
from repro.ir import print_module, write_module
from repro.perf import STATS
from repro.tools import pipeline
from repro.tools.meta_pdg_embed import embed_pdg
from repro.tools.pipeline import load_program
from repro.tools.whole_ir import LINK_OPTIONS_KEY, whole_ir_from_files
from repro.workloads import all_workloads, get


@pytest.fixture
def store(tmp_path, monkeypatch):
    root = tmp_path / "cache"
    monkeypatch.setenv("NOELLE_CACHE_DIR", str(root))
    yield cache.get_store()


def _publish_crc32():
    """Compile, analyze, run, and publish crc32; returns its key."""
    module = cache.cached_compile(get("crc32").source, "crc32")
    noelle = Noelle(module)
    cache.attach(noelle)
    noelle.pdg().materialize()
    result = Interpreter(module).run()
    cache.publish_artifacts(module, noelle)
    return cache.module_key(module), result


def _payloads(store, key, kind, fn_names):
    """The decoded ``kind`` payloads the store holds among ``fn_names``."""
    files = store.load_artifacts(key, kind.name, fn_names)
    return {name: kind.decode(name, data) for name, data in files.items()}


def test_disabled_without_env(monkeypatch):
    monkeypatch.delenv("NOELLE_CACHE_DIR", raising=False)
    assert cache.get_store() is None
    assert not cache.enabled()
    # front doors fall back to the plain compile path
    module = cache.cached_compile(get("crc32").source, "crc32")
    assert module.functions


def test_miss_then_hit(store):
    before = STATS.get("cache.hits")
    key, _ = _publish_crc32()
    assert store.has_entry(key)
    module2 = cache.cached_compile(get("crc32").source, "crc32")
    assert STATS.get("cache.hits") == before + 1
    assert cache.module_key(module2) == key


def _crc32_inputs():
    module = compile_source(get("crc32").source, "crc32")  # not via the cache
    return {
        "cached_compile": (cache.cached_compile, get("crc32").source),
        "load_ir_text": (cache.load_ir_text, print_module(module)),
        "load_ir_binary": (cache.load_ir_binary, write_module(module)),
    }


@pytest.mark.parametrize(
    "door", ["cached_compile", "load_ir_text", "load_ir_binary"]
)
def test_every_front_door_with_and_without_a_store(door, store, monkeypatch):
    load, raw = _crc32_inputs()[door]
    hits, misses = STATS.get("cache.hits"), STATS.get("cache.misses")
    cold = load(raw, "crc32")
    assert (STATS.get("cache.hits"), STATS.get("cache.misses")) == (
        hits, misses + 1
    )
    result = Interpreter(cold).run()
    cache.publish_artifacts(cold)
    # A second call is a hit that compiles nothing...
    compiles = STATS.get("engine.compiles")
    warm = load(raw, "crc32")
    assert (STATS.get("cache.hits"), STATS.get("cache.misses")) == (
        hits + 1, misses + 1
    )
    assert cache.module_key(warm) == cache.module_key(cold)
    again = Interpreter(warm).run()
    assert STATS.get("engine.compiles") == compiles
    assert (again.output, again.steps, again.cycles) == (
        result.output, result.steps, result.cycles
    )
    # ...and without a store the same name is the plain path: no
    # counters, no key, the same module.
    monkeypatch.delenv("NOELLE_CACHE_DIR")
    plain = load(raw, "crc32")
    assert (STATS.get("cache.hits"), STATS.get("cache.misses")) == (
        hits + 1, misses + 1
    )
    assert cache.module_key(plain) is None
    assert print_module(plain) == print_module(warm) == print_module(cold)


def test_front_doors_meet_at_one_entry(store):
    # The key is the canonical printed text, whichever door saw it first:
    # plans published through one are adopted through the others.
    doors = _crc32_inputs()
    load, raw = doors.pop("load_ir_binary")
    first = load(raw, "crc32")
    Interpreter(first).run()
    cache.publish_artifacts(first)
    compiles = STATS.get("engine.compiles")
    for load, raw in doors.values():
        module = load(raw, "crc32")  # an alias miss onto a warm entry
        assert cache.module_key(module) == cache.module_key(first)
        Interpreter(module).run()
    assert STATS.get("engine.compiles") == compiles
    assert store.stats()["entries"] == 1 and store.stats()["aliases"] == 3


def test_binary_front_door_keeps_the_metadata_of_its_input(store):
    # A .nir hit decodes the bytes it was given, not the entry's copy:
    # the two print the same but may carry different metadata.
    module = compile_source(get("crc32").source, "crc32")
    cache.load_ir_binary(write_module(module), "crc32")
    module.metadata["custom.tag"] = [1, 2, 3]
    hits = STATS.get("cache.hits")
    tagged = cache.load_ir_binary(write_module(module), "crc32")
    again = cache.load_ir_binary(write_module(module), "crc32")
    assert STATS.get("cache.hits") == hits + 1
    assert tagged.metadata["custom.tag"] == [1, 2, 3]
    assert again.metadata["custom.tag"] == [1, 2, 3]


def test_a_shard_that_does_not_fit_is_evicted_and_rebuilt(store):
    key, _ = _publish_crc32()
    directory = os.path.join(store.entry_dir(key), "pdg")
    shards = sorted(os.listdir(directory))
    victim = os.path.join(directory, shards[0])
    with open(victim, "rb") as handle:
        envelope = pickle.loads(handle.read())
    payload = envelope["payload"]
    payload["ninsts"] += 1
    with open(victim, "wb") as handle:
        handle.write(pickle.dumps(envelope, protocol=4))
    hydrated = STATS.get("cache.pdg_shards_hydrated")
    builds = STATS.get("pdg.shard_builds")
    evictions = STATS.get("cache.evictions")
    module = cache.cached_compile(get("crc32").source, "crc32")
    noelle = Noelle(module)
    cache.attach(noelle)
    assert STATS.get("cache.pdg_shards_hydrated") == hydrated + len(shards) - 1
    assert not os.path.exists(victim)
    # Only the shard goes: the function's engine plan stays.
    assert STATS.get("cache.evictions") == evictions + 1
    assert os.path.exists(store.artifact_path(key, "engine", payload["fn"]))
    assert payload["fn"] not in {
        fn.name for fn in noelle._pdg.built_functions()
    }
    noelle.pdg().materialize()
    assert STATS.get("pdg.shard_builds") == builds + 1
    cache.publish_artifacts(module, noelle)
    assert _payloads(store, key, PDG_SHARDS, [payload["fn"]])[payload["fn"]][
        "ninsts"
    ] == payload["ninsts"] - 1


def _counted(run):
    """``run()``'s key and the counters it moved."""
    before = STATS.snapshot()
    key, _ = run()
    after = STATS.snapshot()
    return key, {
        name: after[name] - before.get(name, 0)
        for name in after
        if after[name] != before.get(name, 0)
    }


def _damage(path, how, other):
    """Spoil the artifact file at ``path``; ``other`` is another
    function's file of the same kind."""
    with open(path, "rb") as handle:
        data = handle.read()
    if how == "garbage":
        data = b"not an artifact"
    elif how == "truncated":
        data = data[:40]
    elif how == "wrong_version":
        envelope = pickle.loads(data)
        envelope["version"] = ("previous", envelope["version"])
        data = pickle.dumps(envelope, protocol=4)
    else:
        with open(other, "rb") as handle:
            data = handle.read()
    with open(path, "wb") as handle:
        handle.write(data)


@pytest.mark.parametrize(
    "how", ["garbage", "truncated", "wrong_version", "other_function"]
)
@pytest.mark.parametrize(
    "kind, builds",
    [(PDG_SHARDS, "pdg.shard_builds"), (ENGINE_PLANS, "engine.compiles")],
    ids=["pdg", "engine"],
)
def test_a_bad_artifact_is_evicted_rebuilt_once_and_republished(
    store, kind, builds, how
):
    """The one rule for a file of either kind that does not decode as a
    current envelope for its function; each ``_publish_crc32`` stands
    for one process against the store."""
    key, _ = _publish_crc32()
    names = [fn.name for fn in cache.cached_compile(
        get("crc32").source, "crc32").defined_functions()]
    path = store.artifact_path(key, kind.name, names[0])
    _damage(path, how, store.artifact_path(key, kind.name, names[1]))
    _, repaired = _counted(_publish_crc32)
    assert repaired.get(builds) == 1
    assert repaired.get("cache.evictions") == 1
    with open(path, "rb") as handle:  # written back, current again
        assert kind.decode(names[0], handle.read()) is not None
    _, after = _counted(_publish_crc32)
    assert "pdg.shard_builds" not in after
    assert "engine.compiles" not in after
    assert "cache.evictions" not in after
    assert after["cache.pdg_shards_hydrated"] == len(names)
    assert after["cache.engine_plans_hydrated"] == len(names)


def test_an_adopted_shard_is_built_when_adopted(store):
    key, _ = _publish_crc32()
    module = cache.cached_compile(get("crc32").source, "crc32")
    functions = list(module.defined_functions())
    written = _payloads(store, key, PDG_SHARDS, [fn.name for fn in functions])
    noelle = Noelle(module)
    builds = STATS.get("pdg.shard_builds")
    cache.attach(noelle)
    pdg = noelle.pdg()
    assert sorted(written) == sorted(fn.name for fn in functions)
    # Attach built every adopted shard's nodes and edges.
    assert len(pdg._nodes) == sum(
        len(list(fn.instructions())) for fn in functions
    )
    # A whole-graph read builds none, and exports what was written.
    pdg.materialize()
    assert {fn.name: pdg.export_shard(fn) for fn in functions} == written
    assert STATS.get("pdg.shard_builds") == builds


@pytest.mark.parametrize("workload", [w.name for w in all_workloads()])
def test_a_minic_file_loads_through_the_cache(workload, tmp_path, store):
    path = tmp_path / f"{workload}.mc"
    path.write_text(get(workload).source)
    expected = print_module(whole_ir_from_files([str(path)]))
    hits = STATS.get("cache.hits")
    for warm in (False, True):
        module = load_program(str(path))
        assert print_module(module) == expected
        assert module.metadata[LINK_OPTIONS_KEY] == []
        assert STATS.get("cache.hits") == hits + warm


def test_warm_hydration_is_byte_identical(store):
    key, cold = _publish_crc32()
    module = cache.cached_compile(get("crc32").source, "crc32")
    noelle = Noelle(module)
    cache.attach(noelle)
    # PDG hydrated without touching alias analysis
    assert noelle._pdg is not None
    assert noelle._aa is None
    # engine plans hydrated: the run does zero compiles
    compiles_before = STATS.get("engine.compiles")
    warm = Interpreter(module).run()
    assert STATS.get("engine.compiles") == compiles_before
    assert warm.output == cold.output
    assert warm.steps == cold.steps
    assert warm.cycles == cold.cycles
    # hydrated PDG matches a fresh build
    fresh = Noelle(cache.cached_compile(get("crc32").source, "crc32"))
    fresh_pdg = fresh.pdg()
    fresh_pdg.materialize()
    warm_pdg = noelle.pdg()
    warm_pdg.materialize()

    def edges(pdg):
        return sorted(
            (str(e.src.value), str(e.dst.value), e.kind, e.data_kind,
             e.is_memory, e.is_must)
            for e in pdg.edges()
        )

    assert edges(warm_pdg) == edges(fresh_pdg)
    assert warm_pdg.memory_queries == fresh_pdg.memory_queries
    assert warm_pdg.memory_disproved == fresh_pdg.memory_disproved


def test_poisoned_module_is_evicted_as_miss(store):
    key, _ = _publish_crc32()
    nir_path = os.path.join(store.entry_dir(key), "module.nir")
    with open(nir_path, "r+b") as handle:
        handle.seek(30)
        byte = handle.read(1)
        handle.seek(30)
        handle.write(bytes([byte[0] ^ 0xFF]))
    poisoned_before = STATS.get("cache.poisoned")
    misses_before = STATS.get("cache.misses")
    module = cache.cached_compile(get("crc32").source, "crc32")
    # hash mismatch: treated as a miss, entry evicted, recompiled
    assert STATS.get("cache.poisoned") == poisoned_before + 1
    assert STATS.get("cache.misses") == misses_before + 1
    assert module.functions
    # the recompile republished a clean entry
    assert store.has_entry(key)
    assert store.load_module(key) is not None


def test_meta_version_skew_is_evicted(store):
    key, _ = _publish_crc32()
    meta_path = os.path.join(store.entry_dir(key), "meta.json")
    with open(meta_path) as handle:
        meta = json.load(handle)
    meta["format"] = 999
    with open(meta_path, "w") as handle:
        json.dump(meta, handle)
    assert store.load_module(key) is None
    assert not store.has_entry(key)


def test_per_function_invalidate_evicts_only_that_shard(store):
    key, _ = _publish_crc32()
    module = cache.cached_compile(get("crc32").source, "crc32")
    noelle = Noelle(module)
    binding = cache.attach(noelle)
    names = [fn.name for fn in module.defined_functions()]
    assert len(names) >= 2
    victim = module.functions[names[0]]
    victim_plan = store.artifact_path(key, "engine", names[0])
    other_plan = store.artifact_path(key, "engine", names[1])
    assert os.path.exists(victim_plan) and os.path.exists(other_plan)
    noelle.invalidate(victim)
    assert not os.path.exists(victim_plan)
    assert os.path.exists(other_plan)
    assert names[0] in binding.dirty
    # dirty function is never published back
    cache.publish_artifacts(module, noelle)
    assert not os.path.exists(victim_plan)


def test_full_invalidate_severs_binding(store):
    _publish_crc32()
    module = cache.cached_compile(get("crc32").source, "crc32")
    noelle = Noelle(module)
    cache.attach(noelle)
    assert noelle._cache_binding is not None
    noelle.invalidate()
    assert noelle._cache_binding is None


def test_corrupt_shard_and_plan_skipped(store):
    key, _ = _publish_crc32()
    for sub in ("pdg", "engine"):
        directory = os.path.join(store.entry_dir(key), sub)
        victim = os.path.join(directory, sorted(os.listdir(directory))[0])
        with open(victim, "wb") as handle:
            handle.write(b"not a pickle")
    # corrupt artifacts are skipped, not fatal
    module = cache.cached_compile(get("crc32").source, "crc32")
    noelle = Noelle(module)
    cache.attach(noelle)
    result = Interpreter(module).run()
    assert result.output


def test_previous_plan_version_is_a_miss(store):
    """A plan written by the previous plan format is recompiled, never
    an error — whichever of the three guards meets it."""
    key, cold = _publish_crc32()
    # 1. Its entries are keyed apart: the version salts the content key.
    assert f"eplan{EPLAN_VERSION}:" in KEY_SALT
    # 2. A plan file that says so is not loaded.
    directory = os.path.join(store.entry_dir(key), "engine")
    for filename in os.listdir(directory):
        path = os.path.join(directory, filename)
        with open(path, "rb") as handle:
            envelope = pickle.loads(handle.read())
        magic = envelope["version"][1]
        envelope["version"] = (EPLAN_VERSION - 1, magic)
        envelope["payload"][0]["version"] = EPLAN_VERSION - 1
        with open(path, "wb") as handle:
            handle.write(pickle.dumps(envelope, protocol=4))
        assert _payloads(store, key, ENGINE_PLANS, [envelope["fn"]]) == {
            envelope["fn"]: None
        }
    hydrated = STATS.get("cache.engine_plans_hydrated")
    compiles = STATS.get("engine.compiles")
    module = cache.cached_compile(get("crc32").source, "crc32")
    result = Interpreter(module).run()
    assert STATS.get("cache.engine_plans_hydrated") == hydrated
    assert STATS.get("engine.compiles") > compiles
    assert (result.output, result.steps, result.cycles) == (
        cold.output, cold.steps, cold.cycles,
    )
    # 3. Handed to the engine anyway, it is refused as stale.
    fn = next(iter(module.defined_functions()))
    cf = engine_for(module).compiled(fn)
    with pytest.raises(EnginePlanError, match="plan version"):
        engine_for(module).adopt(
            fn, {**cf.plan, "version": EPLAN_VERSION - 1}, cf.code
        )


def test_clear_and_gc(store):
    key, _ = _publish_crc32()
    # orphan an entry by dropping its meta.json
    os.unlink(os.path.join(store.entry_dir(key), "meta.json"))
    pruned = store.gc()
    assert pruned["pruned_entries"] == 1
    assert pruned["pruned_aliases"] == 1
    assert store.stats()["entries"] == 0
    _publish_crc32()
    assert store.stats()["entries"] == 1
    assert store.clear() > 0
    assert store.stats()["entries"] == 0


def test_store_stats_shape(store):
    key, _ = _publish_crc32()
    info = store.stats()
    assert info["entries"] == 1
    assert info["aliases"] == 1
    assert info["artifacts"]["pdg"] >= 1
    assert info["artifacts"]["engine"] >= 1
    assert info["total_bytes"] > 0


def test_concurrent_safe_filenames():
    assert _fn_filename("main") == "main"
    weird = _fn_filename("a/b c%d" + "x" * 100)
    assert "/" not in weird and " " not in weird
    assert len(weird) <= 80
    assert _fn_filename("a/b") != _fn_filename("a_b")


def test_transformed_module_not_poisoned_by_cache(store):
    """A licm-transformed module runs identically with the cache on."""
    from repro.robust.passmanager import PassManager

    _publish_crc32()
    module = cache.cached_compile(get("crc32").source, "crc32")
    noelle = Noelle(module)
    cache.attach(noelle)
    manager = PassManager(noelle)
    manager.run_registered("licm")
    noelle.invalidate()
    transformed = Interpreter(module).run()

    reference_module = get("crc32").compile()
    ref_noelle = Noelle(reference_module)
    ref_manager = PassManager(ref_noelle)
    ref_manager.run_registered("licm")
    ref_noelle.invalidate()
    reference = Interpreter(reference_module).run()
    assert transformed.output == reference.output
    assert print_module(module) == print_module(reference_module)


def _figures_json():
    from repro.experiments import fig3_dependences, fig4_invariants
    from repro.experiments.speedups import fig5_speedups

    return json.dumps({
        "fig3": fig3_dependences(),
        "fig4": fig4_invariants(),
        "fig5": fig5_speedups(
            [get("blackscholes"), get("crc32")], techniques=("doall", "helix")
        ),
    }, sort_keys=True)


def test_figures_do_not_depend_on_the_store(tmp_path, monkeypatch):
    """fig3/fig4/fig5 serialise identically with no store, a cold store
    and a warm one; the warm pass compiles every workload from it."""
    monkeypatch.delenv("NOELLE_CACHE_DIR", raising=False)
    plain = _figures_json()
    monkeypatch.setenv("NOELLE_CACHE_DIR", str(tmp_path / "cache"))
    assert _figures_json() == plain  # cold: misses, published
    hits, misses = STATS.get("cache.hits"), STATS.get("cache.misses")
    assert _figures_json() == plain  # warm
    assert STATS.get("cache.hits") - hits >= 21
    assert STATS.get("cache.misses") == misses


def test_corpus_outcomes_do_not_depend_on_a_warm_store(tmp_path, monkeypatch):
    """The micro-test harness twice against one store: the second pass
    rides the first one's entries and agrees on every outcome."""
    from repro.testing.harness import ToolConfig, build_corpus, run_corpus

    monkeypatch.setenv("NOELLE_CACHE_DIR", str(tmp_path / "cache"))

    def outcomes():
        configs = [ToolConfig("licm+dead", ["licm", "dead"])]
        return [
            (outcome.test.name, outcome.passed)
            for outcome in run_corpus(configs, build_corpus()[:12])
        ]

    cold = outcomes()
    hits, misses = STATS.get("cache.hits"), STATS.get("cache.misses")
    assert outcomes() == cold
    assert all(passed for _name, passed in cold), cold
    assert STATS.get("cache.hits") > hits
    assert STATS.get("cache.misses") == misses


def test_a_current_embedded_pdg_reads_no_shard_file(store, tmp_path):
    """``attach`` reads the shard files of the functions that hold no
    shard only: a ``.nir`` whose embedded PDG covers every function
    reads none of the three the store holds for it."""
    module = cache.cached_compile(get("susan").source, "susan")
    noelle = Noelle(module)
    cache.attach(noelle)
    noelle.pdg().materialize()
    cache.publish_artifacts(module, noelle)
    key = cache.module_key(module)
    assert len(os.listdir(os.path.join(store.entry_dir(key), "pdg"))) == 3

    embedded = compile_source(get("susan").source, "susan")
    embed_pdg(embedded)
    path = tmp_path / "susan.nir"
    path.write_bytes(write_module(embedded))
    reads = STATS.get("cache.pdg_shard_reads")
    hydrated = STATS.get("cache.pdg_shards_hydrated")
    loaded = pipeline.load(load_program(str(path)))
    assert STATS.get("cache.pdg_shard_reads") == reads
    assert STATS.get("cache.pdg_shards_hydrated") == hydrated
    assert len(loaded.pdg().built_functions()) == 3
