"""Cache wiring: hydration into live objects and publish-back.

The store (`repro.cache.store`) moves bytes; this module converts
between those bytes and live analysis state:

* `cached_compile` / `load_ir_text` / `load_ir_binary` — the front
  doors for source text, textual IR and ``.nir`` bytes, one routine
  (`_load`) behind three names.  On a warm hit the module is decoded
  from the binary payload instead of re-parsed and its compiled-engine
  plans are adopted, so the first `run` compiles nothing.  Without a
  store each is the plain compile / parse / decode.
* `attach` — binds a `Noelle` facade to the cache entry of its module
  and adopts the entry's PDG shards, so `invalidate(fn)` evicts exactly
  that function's on-disk artifacts.
* `publish_artifacts` — writes back whatever the process computed (PDG
  shards, engine plans) for functions that were never mutated.

A PDG shard crosses this boundary only as the payload of
`PDG.export_shard` / `PDG.adopt_shards`; `attach` adopts into the
facade's own `PDG`, an ordinary one over the facade's (not yet
computed) alias analysis, so a function invalidated later is rebuilt
in place.
"""

from __future__ import annotations

import hashlib
import os
import weakref

from ..core.pdg import PDG
from ..interp.engine import EnginePlanError, engine_for, existing_engine
from ..ir import parse_module, print_module, read_module, verify_module
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
        #: Functions whose PDG shard was adopted from this entry: on disk.
        self.hydrated: set[str] = set()

    def invalidate_function(self, fn: Function) -> None:
        self.dirty.add(fn.name)
        self.store.evict_function(self.key, fn.name)

    def publish_pdg(self, pdg: PDG | None) -> int:
        """Write back built, clean shards; returns shards published."""
        if pdg is None:
            return 0
        published = 0
        for fn in pdg.built_functions():
            if (
                fn.name in self.dirty
                or fn.name in self.hydrated
                or fn.parent is not self.module
            ):
                continue
            payload = pdg.export_shard(fn)
            if payload is None:
                continue
            self.store.publish_pdg_shard(self.key, fn.name, payload)
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
    content.  The entry's PDG shards are adopted into ``noelle.pdg()``
    for every function that holds no shard yet, and a shard that does
    not fit the code it is filed under is evicted; engine plans hydrate
    into the module's engine.
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
        store.publish_module(key, module, text)
    elif not store.has_entry(key):
        store.publish_module(key, module, print_module(module))
    binding = ModuleCacheBinding(store, key, module)
    with STATS.timer("cache.hydrate_pdg"):
        pdg = noelle.pdg()
        shards = store.load_pdg_shards(
            key, [fn.name for fn in pdg.unsharded_functions()]
        )
        if shards:
            adopted, refused = pdg.adopt_shards(shards)
            for name in adopted:
                binding.hydrated.add(name)
                STATS.count("cache.pdg_shards_hydrated")
            # Make room for the shards this process will build.
            for name in refused:
                store.evict_function(key, name)
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
        with STATS.timer("engine.hydrate"):
            loaded = store.load_engine_plan(key, fn.name)
            if loaded is None:
                continue
            plan, code = loaded
            try:
                engine.adopt(fn, plan, code)
            except EnginePlanError:
                store.evict_function(key, fn.name)
                continue
        hydrated += 1
        STATS.count("cache.engine_plans_hydrated")
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


def _load(kind: str, name: str, raw: str | bytes, build) -> Module:
    """The way in: alias -> entry -> publish -> hydrate.

    ``build()`` makes the verified module from the input itself: the
    whole job without a store, and the miss path with one.  A miss
    publishes the result keyed by its canonical printed text (printed
    once) and aliases the raw input to that key; a hit skips the
    frontend — text decodes the entry's binary module, ``.nir`` bytes
    (which already are that encoding, and may carry metadata the
    entry's copy lacks) decode themselves, unverified because an alias
    is only ever written for input that verified.
    """
    store = get_store()
    if store is None:
        return build()
    binary = isinstance(raw, bytes)
    digest = store.source_digest(
        kind, name, hashlib.sha256(raw).hexdigest() if binary else raw
    )
    key = store.get_alias(digest)
    module = None
    if key is not None:
        if not binary:
            module = store.load_module(key)
        elif store.has_entry(key):
            module = read_module(raw)
    if module is not None:
        STATS.count("cache.hits")
    else:
        STATS.count("cache.misses")
        module = build()
        text = print_module(module)
        key = store.module_key(text)
        store.publish_module(key, module, text)
        store.set_alias(digest, key)
    _KEYS[module] = key
    # Also after a miss: the canonical text may already be warm, reached
    # through another front door.
    _hydrate_engine(store, key, module)
    return module


def _verified(module: Module) -> Module:
    verify_module(module)
    return module


def cached_compile(source: str, name: str = "minic") -> Module:
    """`compile_source` with a content-addressed warm path (a hit
    imports no front end)."""

    def build() -> Module:
        from ..frontend.codegen import compile_source

        return compile_source(source, name)

    return _load("src", name, source, build)


def load_ir_text(text: str, name: str = "module") -> Module:
    """Parse and verify textual IR, with the same warm path."""
    return _load(
        "ir", name, text, lambda: _verified(parse_module(text, name))
    )


def load_ir_binary(data: bytes, name: str = "module") -> Module:
    """Decode and verify binary IR, with the same warm path."""
    return _load("nir", name, data, lambda: _verified(read_module(data)))
