"""Cache wiring: the artifact kinds, hydration into live objects, and
publish-back.

The store (`repro.cache.store`) moves bytes; this module converts
between those bytes and live analysis state:

* `cached_compile` / `load_ir_text` / `load_ir_binary` — the front
  doors for source text, textual IR and ``.nir`` bytes, one routine
  (`_load`) behind three names.  On a warm hit the module is decoded
  from the binary payload instead of re-parsed and its compiled-engine
  plans are adopted, so the first `run` compiles nothing.  Without a
  store each is the plain compile / parse / decode.
* `attach` — binds a `Noelle` facade to the cache entry of its module
  and adopts the entry's PDG shards and engine plans, so
  `invalidate(fn)` evicts exactly that function's on-disk artifacts.
* `publish_artifacts` — writes back whatever the process computed for
  functions that were never mutated.

The per-function artifacts are the two `ArtifactKind` instances
`PDG_SHARDS` (``objects/<key>/pdg/<fn>``: `PDG.export_shard` /
`PDG.adopt_shards`, into the facade's own `PDG`, so a function
invalidated later is rebuilt in place) and `ENGINE_PLANS`
(``objects/<key>/engine/<fn>``: a compiled function's plan and code /
`ExecutionEngine.adopt`).  Each file is one pickled envelope,
``{"kind", "version", "fn", "payload"}``.  `_hydrate` adopts either
kind and `ModuleCacheBinding.publish` writes either back, under one
rule for a bad file: one that does not decode as a current envelope for
its function, or whose payload is refused, is evicted (that kind, that
function only), the artifact is rebuilt in this process like any
other, and the next `publish_artifacts` writes it.  A file on disk is
never overwritten.
"""

from __future__ import annotations

import hashlib
import importlib.util
import marshal
import os
import pickle
import weakref

from ..core.pdg import PDG, SHARD_VERSION
from ..interp.engine import EPLAN_VERSION, EnginePlanError, engine_for, existing_engine
from ..ir import parse_module, print_module, read_module, verify_module
from ..ir.module import Function, Module
from ..perf import STATS
from .store import CACHE_DIR_ENV, ArtifactStore


class ArtifactKind:
    """One per-function artifact, declared once.

    ``name`` is its directory in an entry and ``version`` goes into each
    file's envelope.  ``noun`` names its counters,
    ``cache.<noun>_reads`` (files read) and ``cache.<noun>s_hydrated``
    (payloads adopted), and ``timer`` is the STATS timer around a
    hydration.  The rest is asked of the live object that holds the
    artifacts, the kind's *holder*: ``missing(holder)`` and
    ``built(holder)`` are the functions without and with one,
    ``export(holder, fn)`` is ``fn``'s payload (None if it has none),
    ``adopt(holder, {name: payload})`` returns the adopted and the
    refused names, and ``pack``/``unpack`` turn a payload into what the
    envelope pickles and back.
    """

    def __init__(self, name, version, noun, timer, *, missing, built,
                 export, adopt, pack=None, unpack=None):
        self.name = name
        self.version = version
        self.reads = f"cache.{noun}_reads"
        self.hydrated = f"cache.{noun}s_hydrated"
        self.timer = timer
        self.missing = missing
        self.built = built
        self.export = export
        self.adopt = adopt
        self.pack = pack or (lambda payload: payload)
        self.unpack = unpack or (lambda packed: packed)

    def encode(self, fn_name: str, payload) -> bytes:
        return pickle.dumps({
            "kind": self.name,
            "version": self.version,
            "fn": fn_name,
            "payload": self.pack(payload),
        }, protocol=4)

    def decode(self, fn_name: str, data: bytes):
        """The payload of ``fn_name``'s file, or None when the file is
        not a current envelope of this kind for that function."""
        try:
            envelope = pickle.loads(data)
            if (envelope["kind"], envelope["version"], envelope["fn"]) != (
                self.name, self.version, fn_name
            ):
                return None
            return self.unpack(envelope["payload"])
        except Exception:
            return None


PDG_SHARDS = ArtifactKind(
    "pdg", SHARD_VERSION, "pdg_shard", "cache.hydrate_pdg",
    missing=PDG.unsharded_functions,
    built=PDG.built_functions,
    export=PDG.export_shard,
    adopt=PDG.adopt_shards,
)


def _uncompiled(module: Module) -> list[Function]:
    compiled = engine_for(module).functions
    return [fn for fn in module.defined_functions() if id(fn) not in compiled]


def _compiled(module: Module) -> list[Function]:
    engine = existing_engine(module)
    return [] if engine is None else [cf.fn for cf in engine.functions.values()]


def _plan_of(module: Module, fn: Function):
    cf = module.engine.functions[id(fn)]
    return cf.plan, cf.code


def _adopt_plans(module: Module, payloads: dict) -> tuple[list[str], list[str]]:
    engine = engine_for(module)
    adopted: list[str] = []
    refused: list[str] = []
    for fn in module.defined_functions():
        if fn.name in payloads:
            try:
                engine.adopt(fn, *payloads[fn.name])
                adopted.append(fn.name)
            except EnginePlanError:
                refused.append(fn.name)
    return adopted, refused


#: A plan's code is marshal'd, which loads only into the interpreter
#: generation that wrote it: its bytecode magic is part of the version.
ENGINE_PLANS = ArtifactKind(
    "engine", (EPLAN_VERSION, importlib.util.MAGIC_NUMBER.hex()),
    "engine_plan", "engine.hydrate",
    missing=_uncompiled,
    built=_compiled,
    export=_plan_of,
    adopt=_adopt_plans,
    pack=lambda payload: (payload[0], marshal.dumps(payload[1])),
    unpack=lambda packed: (packed[0], marshal.loads(packed[1])),
)


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

    def invalidate_function(self, fn: Function) -> None:
        self.dirty.add(fn.name)
        self.store.evict_function(self.key, fn.name)

    def publish(self, kind: ArtifactKind, holder) -> None:
        """Write back ``holder``'s ``kind`` artifacts of clean functions
        that have no file yet."""
        if holder is None:
            return
        for fn in kind.built(holder):
            if (
                fn.name in self.dirty
                or fn.parent is not self.module
                or self.store.has_artifact(self.key, kind.name, fn.name)
            ):
                continue
            payload = kind.export(holder, fn)
            if payload is not None:
                self.store.publish_artifact(
                    self.key, kind.name, fn.name, kind.encode(fn.name, payload)
                )


def _hydrate(store: ArtifactStore, key: str, kind: ArtifactKind,
             holder) -> None:
    """Adopt the entry's ``kind`` files into ``holder`` for the functions
    that still need one; only their files are read.  A file that does
    not decode, or whose payload ``holder`` refuses, is evicted."""
    with STATS.timer(kind.timer):
        files = store.load_artifacts(
            key, kind.name, [fn.name for fn in kind.missing(holder)]
        )
        if not files:
            return
        STATS.count(kind.reads, len(files))
        payloads = {}
        for name, data in files.items():
            payload = kind.decode(name, data)
            if payload is None:
                store.evict_artifact(key, kind.name, name)
            else:
                payloads[name] = payload
        adopted, refused = kind.adopt(holder, payloads)
        for name in refused:
            store.evict_artifact(key, kind.name, name)
        if adopted:
            STATS.count(kind.hydrated, len(adopted))


def attach(noelle) -> ModuleCacheBinding | None:
    """Bind ``noelle`` to the cache and hydrate what the entry holds.

    Publishes the module payload if this is the first sighting of its
    content.  The entry's PDG shards are adopted into ``noelle.pdg()``
    for every function that holds no shard yet, and its engine plans
    into the module's engine for every function not compiled yet.
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
    _hydrate(store, key, PDG_SHARDS, noelle.pdg())
    _hydrate(store, key, ENGINE_PLANS, module)
    noelle.bind_cache(binding)
    return binding


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
            binding.publish(PDG_SHARDS, noelle._pdg)
        binding.publish(ENGINE_PLANS, module)


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
    _hydrate(store, key, ENGINE_PLANS, module)
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
