"""Cache wiring: hydration into live objects and publish-back.

The store (`repro.cache.store`) moves bytes; this module converts
between those bytes and live analysis state:

* `cached_compile` / `load_ir_text` — front door for source text and
  textual IR.  On a warm hit the module is decoded from the binary
  payload instead of re-parsed, and its PDG shards and compiled-engine
  plans are hydrated eagerly so the first `run` does no analysis work.
* `attach` — binds a `Noelle` facade to the cache entry of its module,
  so `invalidate(fn)` evicts exactly that function's on-disk artifacts.
* `publish_artifacts` — writes back whatever the process computed (PDG
  shards, engine plans) for functions that were never mutated.

Hydrated PDGs keep per-function invalidation working: `_HydratedPDG`
exposes ``aa`` as a lazy property delegating to the owning facade's
alias analysis, so a single stale function is rebuilt in place (with a
real Andersen analysis) rather than forcing a whole-module re-analysis.
"""

from __future__ import annotations

import hashlib
import os
import weakref

from ..core.depgraph import DependenceGraph
from ..core.pdg import PDG, _Shard
from ..frontend.codegen import compile_source
from ..interp.engine import EnginePlanError, engine_for, existing_engine
from ..ir import parse_module, print_module, verify_module
from ..ir.module import Function, Module
from ..perf import STATS
from .store import CACHE_DIR_ENV, ArtifactStore

#: Process-wide store singleton, keyed by the env var's current value so
#: tests can repoint ``NOELLE_CACHE_DIR`` freely.
_STORE: tuple[str, ArtifactStore] | None = None

#: Module -> content key, for modules loaded/published by this process.
#: Weak keys: the index must not keep modules alive.
_KEYS: "weakref.WeakKeyDictionary[Module, str]" = weakref.WeakKeyDictionary()


def get_store() -> ArtifactStore | None:
    """The active store, or None when ``NOELLE_CACHE_DIR`` is unset."""
    global _STORE
    root = os.environ.get(CACHE_DIR_ENV, "").strip()
    if not root:
        return None
    if _STORE is None or _STORE[0] != root:
        try:
            _STORE = (root, ArtifactStore(root))
        except OSError:
            return None
    return _STORE[1]


def enabled() -> bool:
    return get_store() is not None


def module_key(module: Module) -> str | None:
    """The content key of ``module`` as known to this process, if any."""
    return _KEYS.get(module)


def remember_key(module: Module, key: str) -> None:
    _KEYS[module] = key


# -- hydrated PDG ------------------------------------------------------------


class _HydratedPDG(PDG):
    """A PDG rebuilt from cached shards.

    Unlike `PDG.from_serialized` (whose ``aa`` is None, forcing
    whole-graph invalidation), the alias analysis here is a lazy
    property delegating to the owning `Noelle` facade — so invalidating
    one function keeps the other shards and rebuilds just that one with
    a real Andersen analysis.
    """

    @property
    def aa(self):
        return self._aa_supplier()

    def can_rebuild_shards(self) -> bool:
        return True  # aa materializes on demand; don't build it here


def _serialize_shard(pdg: PDG, shard: _Shard) -> dict | None:
    """One function's shard as index-based, process-independent data."""
    fn = shard.fn
    insts = list(fn.instructions())
    position = {id(inst): i for i, inst in enumerate(insts)}
    edges = []
    for edge in shard.edges:
        src_i = position.get(id(edge.src.value))
        dst_i = position.get(id(edge.dst.value))
        if src_i is None or dst_i is None:
            return None  # cross-function edge: not publishable
        edges.append(
            (src_i, dst_i, edge.kind, edge.data_kind, edge.is_memory,
             edge.is_must)
        )
    return {
        "fn": fn.name,
        "ninsts": len(insts),
        "edges": edges,
        "queries": shard.queries,
        "disproved": shard.disproved,
    }


def _hydrate_pdg(module: Module, aa_supplier, shards: dict[str, dict]) -> PDG:
    """Build a `_HydratedPDG` from per-function shard payloads.

    Functions without a (valid) payload are left unbuilt — the PDG's
    normal lazy materialization rebuilds them on first query.
    """
    pdg = _HydratedPDG.__new__(_HydratedPDG)
    DependenceGraph.__init__(pdg)
    pdg.module = module
    pdg._aa_supplier = aa_supplier
    pdg.partition = True
    pdg._materializing = False
    pdg._memory_queries = 0
    pdg._memory_disproved = 0
    pdg._shards = {}
    for fn in module.defined_functions():
        payload = shards.get(fn.name)
        if payload is None:
            continue
        insts = list(fn.instructions())
        if payload.get("ninsts") != len(insts):
            continue  # stale shard: rebuilt lazily
        shard = _Shard(fn)
        pdg._shards[id(fn)] = shard
        for inst in insts:
            pdg.add_node(inst, internal=True)
            shard.node_ids.append(id(inst))
        for src_i, dst_i, kind, data_kind, is_memory, is_must in (
            payload["edges"]
        ):
            edge = pdg.add_edge(
                insts[src_i], insts[dst_i], kind, data_kind, is_memory,
                is_must,
            )
            shard.edges.append(edge)
        shard.queries = payload.get("queries", 0)
        shard.disproved = payload.get("disproved", 0)
        pdg._memory_queries += shard.queries
        pdg._memory_disproved += shard.disproved
        STATS.count("cache.pdg_shards_hydrated")
    return pdg


# -- facade binding ----------------------------------------------------------


class ModuleCacheBinding:
    """Links one `Noelle` facade to its cache entry.

    Tracks which functions were mutated since load (``dirty``) so
    publish-back never writes artifacts derived from transformed code
    under the pristine module's key, and mirrors per-function
    invalidation onto disk.
    """

    def __init__(self, store: ArtifactStore, key: str, module: Module):
        self.store = store
        self.key = key
        self.module = module
        self.dirty: set[str] = set()

    def invalidate_function(self, fn: Function) -> None:
        self.dirty.add(fn.name)
        self.store.evict_function(self.key, fn.name)

    def publish_pdg(self, pdg: PDG | None) -> int:
        """Write back built, clean shards; returns shards published."""
        if pdg is None:
            return 0
        # Note: _HydratedPDG's ``aa`` is a lazy property — testing it
        # for None would force a full Andersen build just to publish.
        if not isinstance(pdg, _HydratedPDG) and pdg.aa is None:
            return 0  # metadata-rehydrated PDG: shards not trustworthy
        published = 0
        for shard in list(pdg._shards.values()):
            if shard.fn.name in self.dirty or shard.fn.parent is not self.module:
                continue
            payload = _serialize_shard(pdg, shard)
            if payload is None:
                continue
            self.store.publish_pdg_shard(self.key, shard.fn.name, payload)
            published += 1
        return published

    def publish_engine(self) -> int:
        """Write back compiled-engine plans for clean functions."""
        engine = existing_engine(self.module)
        if engine is None:
            return 0
        published = 0
        for cf in list(engine.functions.values()):
            fn = cf.fn
            if (
                cf.plan is None
                or cf.code is None
                or fn.name in self.dirty
                or fn.parent is not self.module
            ):
                continue
            self.store.publish_engine_plan(self.key, fn.name, cf.plan, cf.code)
            published += 1
        return published


def attach(noelle) -> ModuleCacheBinding | None:
    """Bind ``noelle`` to the cache and hydrate what the entry holds.

    Publishes the module payload if this is the first sighting of its
    content.  PDG shards hydrate into ``noelle._pdg`` (directly — going
    through `adopt_pdg` would invalidate the compiled engine we are
    about to hydrate); engine plans hydrate into the module's engine.
    """
    store = get_store()
    if store is None:
        return None
    module = noelle.module
    key = _KEYS.get(module)
    if key is None:
        text = print_module(module)
        key = store.module_key(text)
        _KEYS[module] = key
        if not store.has_entry(key):
            store.publish_module(key, module, text)
    elif not store.has_entry(key):
        store.publish_module(key, module, print_module(module))
    binding = ModuleCacheBinding(store, key, module)
    if noelle._pdg is None:
        shards = store.load_pdg_shards(key)
        if shards:
            try:
                with STATS.timer("cache.hydrate_pdg"):
                    noelle._pdg = _hydrate_pdg(
                        module, noelle.alias_analysis, shards
                    )
            except Exception:
                noelle._pdg = None
                store.evict(key)
    _hydrate_engine(store, key, module)
    noelle.bind_cache(binding)
    return binding


def _hydrate_engine(store: ArtifactStore, key: str, module: Module) -> int:
    """Adopt the cached engine plan of every function that still needs
    one; plans that no longer match (stale after a format drift) are
    evicted.  Plan files of already-hydrated functions are not re-read."""
    engine = engine_for(module)
    hydrated = 0
    for fn in module.defined_functions():
        if id(fn) in engine.functions:
            continue
        loaded = store.load_engine_plan(key, fn.name)
        if loaded is None:
            continue
        plan, code = loaded
        try:
            engine.adopt(fn, plan, code)
            hydrated += 1
            STATS.count("cache.engine_plans_hydrated")
        except EnginePlanError:
            store.evict_function(key, fn.name)
    return hydrated


def publish_artifacts(module: Module, noelle=None) -> None:
    """Write back this process's computed artifacts for ``module``.

    No-op unless the cache is enabled and the module's key is known
    (i.e. it went through `cached_compile`/`load_ir_text`/`attach`).
    When a facade is given, its binding's dirty set is respected;
    otherwise the module is assumed pristine (never handed to tools).
    """
    store = get_store()
    if store is None:
        return
    binding = getattr(noelle, "_cache_binding", None) if noelle else None
    if binding is None:
        key = _KEYS.get(module)
        if key is None:
            return
        if not store.has_entry(key):
            store.publish_module(key, module, print_module(module))
        binding = ModuleCacheBinding(store, key, module)
    with STATS.timer("cache.publish"):
        if noelle is not None:
            binding.publish_pdg(noelle._pdg)
        binding.publish_engine()


# -- front doors -------------------------------------------------------------


def _load_via_alias(store: ArtifactStore, digest: str) -> Module | None:
    key = store.get_alias(digest)
    if key is None:
        return None
    module = store.load_module(key)
    if module is None:
        return None
    _KEYS[module] = key
    _hydrate_engine(store, key, module)
    return module


def cached_compile(source: str, name: str = "minic") -> Module:
    """`compile_source` with a content-addressed warm path.

    A warm hit decodes the binary module (skipping the frontend
    entirely) and pre-hydrates its engine plans; a miss compiles,
    then publishes the result keyed by its canonical printed text.
    """
    store = get_store()
    if store is None:
        return compile_source(source, name)
    digest = store.source_digest("src", name, source)
    module = _load_via_alias(store, digest)
    if module is not None:
        STATS.count("cache.hits")
        return module
    STATS.count("cache.misses")
    module = compile_source(source, name)
    text = print_module(module)
    key = store.module_key(text)
    _KEYS[module] = key
    store.publish_module(key, module, text)
    store.set_alias(digest, key)
    # An alias miss can still land on a warm entry (same canonical
    # text reached through another front door): adopt its plans.
    _hydrate_engine(store, key, module)
    return module


def load_ir_binary(data: bytes, name: str = "module") -> Module:
    """Decode binary IR with the same warm artifact path as the text
    front doors.

    The ``.nir`` payload already *is* the cached module encoding, so
    there is nothing to skip on decode — what the cache adds is the
    surrounding state: the module's content key (one canonical print,
    skipped on later loads via an alias over the raw bytes), hydrated
    engine plans, and publish-back of whatever this process computes.
    """
    from ..ir.binio import read_module

    store = get_store()
    if store is None:
        module = read_module(data)
        verify_module(module)
        return module
    raw = hashlib.sha256(data).hexdigest()
    digest = store.source_digest("nir", name, raw)
    key = store.get_alias(digest)
    if key is not None:
        module = read_module(data)
        _KEYS[module] = key
        if not store.has_entry(key):
            store.publish_module(key, module, print_module(module))
        _hydrate_engine(store, key, module)
        STATS.count("cache.hits")
        return module
    STATS.count("cache.misses")
    module = read_module(data)
    verify_module(module)
    canonical = print_module(module)
    key = store.module_key(canonical)
    _KEYS[module] = key
    if not store.has_entry(key):
        store.publish_module(key, module, canonical)
    store.set_alias(digest, key)
    _hydrate_engine(store, key, module)
    return module


def load_ir_text(text: str, name: str = "module") -> Module:
    """Parse textual IR with the same warm path as `cached_compile`."""
    store = get_store()
    if store is None:
        module = parse_module(text, name)
        verify_module(module)
        return module
    digest = store.source_digest("ir", name, text)
    module = _load_via_alias(store, digest)
    if module is not None:
        STATS.count("cache.hits")
        return module
    STATS.count("cache.misses")
    module = parse_module(text, name)
    verify_module(module)
    canonical = print_module(module)
    key = store.module_key(canonical)
    _KEYS[module] = key
    store.publish_module(key, module, canonical)
    store.set_alias(digest, key)
    # Same as `cached_compile`: the canonical key may already be warm.
    _hydrate_engine(store, key, module)
    return module
