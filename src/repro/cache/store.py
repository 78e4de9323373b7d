"""Content-addressed artifact store backing the compilation cache.

Layout under the cache root (``NOELLE_CACHE_DIR``)::

    objects/<key>/module.nir        binary module (repro.ir.binio)
    objects/<key>/meta.json         entry metadata — written LAST, so its
                                    presence commits the entry
    objects/<key>/pdg/<fn>.pkl      per-function PDG shard (pickle)
    objects/<key>/engine/<fn>.plan  per-function engine plan + marshal'd
                                    code object
    aliases/<digest>                source-text digest -> entry key
    tmp/                            staging area for atomic publishes

``<key>`` is the SHA-256 of the canonical printed module text prefixed
with a format/version salt (binary format version, engine plan version),
so any encoding change naturally invalidates every old entry.  Every
file is published atomically: written to ``tmp/`` and ``os.replace``'d
into place, so concurrent processes (serve workers, ``jobs=N`` pools)
can share one cache directory without locks — readers see either the
old complete file or the new complete file, never a torn one.

Validation on read is structural and cheap: the module payload's
SHA-256 must match ``meta.json`` (a mismatch is treated as poisoning —
the entry is evicted and the lookup reported as a miss), and engine
plan files carry the plan version plus the CPython bytecode magic
(marshal'd code objects are interpreter-specific).
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import marshal
import os
import pickle
import shutil

from ..interp.engine import EPLAN_VERSION
from ..ir.binio import FORMAT_VERSION, BinFormatError, read_module, write_module
from ..ir.module import Module
from ..perf import STATS

#: Environment variable pointing at the shared cache directory; the
#: cache is disabled when unset.
CACHE_DIR_ENV = "NOELLE_CACHE_DIR"

#: Salt prefixed to every hashed text.  Includes the binary format and
#: engine plan versions: bumping either orphans all old entries.
KEY_SALT = f"repro-noelle-cache-v1:nir{FORMAT_VERSION}:eplan{EPLAN_VERSION}:"

#: CPython bytecode magic — marshal'd code objects only load into the
#: same interpreter generation that wrote them.
_PY_MAGIC = importlib.util.MAGIC_NUMBER.hex()

_counter = 0


def _fn_filename(name: str) -> str:
    """A filesystem-safe, collision-free filename for a function name."""
    safe = "".join(
        c if c.isalnum() or c in "._-" else f"%{ord(c):02x}" for c in name
    )
    if safe != name or len(safe) > 80:
        safe = safe[:48] + "~" + hashlib.sha256(name.encode()).hexdigest()[:16]
    return safe


class ArtifactStore:
    """One cache directory; safe for concurrent multi-process use."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        self.objects = os.path.join(self.root, "objects")
        self.aliases = os.path.join(self.root, "aliases")
        self.tmp = os.path.join(self.root, "tmp")
        for path in (self.objects, self.aliases, self.tmp):
            os.makedirs(path, exist_ok=True)

    # -- keys ----------------------------------------------------------------

    @staticmethod
    def module_key(text: str) -> str:
        """Content key of a module from its canonical printed text."""
        return hashlib.sha256((KEY_SALT + text).encode()).hexdigest()

    @staticmethod
    def source_digest(kind: str, name: str, source: str) -> str:
        """Alias key for raw input text (C-like source or textual IR)."""
        payload = f"{KEY_SALT}{kind}\x00{name}\x00{source}"
        return hashlib.sha256(payload.encode()).hexdigest()

    def entry_dir(self, key: str) -> str:
        return os.path.join(self.objects, key)

    def has_entry(self, key: str) -> bool:
        return os.path.exists(os.path.join(self.entry_dir(key), "meta.json"))

    # -- atomic publishing ---------------------------------------------------

    def _write_atomic(self, path: str, data: bytes) -> None:
        global _counter
        _counter += 1
        staged = os.path.join(
            self.tmp, f"{os.getpid()}.{_counter}.{os.urandom(6).hex()}"
        )
        with open(staged, "wb") as handle:
            handle.write(data)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        os.replace(staged, path)
        STATS.count("cache.bytes_written", len(data))

    def _read(self, path: str) -> bytes | None:
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            return None
        STATS.count("cache.bytes_read", len(data))
        return data

    # -- module payloads -----------------------------------------------------

    def publish_module(self, key: str, module: Module, text: str) -> None:
        """Write the binary module and commit the entry with meta.json.

        ``text`` must be ``print_module(module)`` — the same canonical
        text the key was derived from.
        """
        entry = self.entry_dir(key)
        if self.has_entry(key):
            return
        with STATS.timer("cache.publish"):
            data = write_module(module)
            self._write_atomic(os.path.join(entry, "module.nir"), data)
            meta = {
                "key": key,
                "format": FORMAT_VERSION,
                "eplan": EPLAN_VERSION,
                "module_name": module.name,
                "nir_sha256": hashlib.sha256(data).hexdigest(),
                "text_bytes": len(text),
            }
            self._write_atomic(
                os.path.join(entry, "meta.json"),
                json.dumps(meta, sort_keys=True).encode(),
            )

    def load_module(self, key: str) -> Module | None:
        """Read an entry's module; None on miss, corruption, or version
        skew.  A payload whose hash no longer matches meta.json is
        treated as a poisoned entry: evicted and reported as a miss."""
        entry = self.entry_dir(key)
        meta_raw = self._read(os.path.join(entry, "meta.json"))
        if meta_raw is None:
            return None
        try:
            meta = json.loads(meta_raw)
        except ValueError:
            self.evict(key)
            return None
        if meta.get("format") != FORMAT_VERSION or meta.get("key") != key:
            self.evict(key)
            return None
        data = self._read(os.path.join(entry, "module.nir"))
        if data is None:
            self.evict(key)
            return None
        if hashlib.sha256(data).hexdigest() != meta.get("nir_sha256"):
            STATS.count("cache.poisoned")
            self.evict(key)
            return None
        try:
            with STATS.timer("cache.hydrate_module"):
                return read_module(data)
        except BinFormatError:
            STATS.count("cache.poisoned")
            self.evict(key)
            return None

    # -- PDG shards ----------------------------------------------------------

    def publish_pdg_shard(self, key: str, fn_name: str, payload: dict) -> None:
        path = os.path.join(
            self.entry_dir(key), "pdg", _fn_filename(fn_name) + ".pkl"
        )
        if os.path.exists(path):
            return
        self._write_atomic(path, pickle.dumps(payload, protocol=4))

    def load_pdg_shards(self, key: str) -> dict[str, dict]:
        """Every readable PDG shard of an entry, by function name."""
        directory = os.path.join(self.entry_dir(key), "pdg")
        shards: dict[str, dict] = {}
        try:
            names = os.listdir(directory)
        except OSError:
            return shards
        for filename in names:
            data = self._read(os.path.join(directory, filename))
            if data is None:
                continue
            try:
                payload = pickle.loads(data)
                fn_name = payload["fn"]
            except Exception:
                continue  # corrupt shard: skip (rebuilt lazily)
            shards[fn_name] = payload
        return shards

    # -- engine plans --------------------------------------------------------

    def publish_engine_plan(self, key: str, fn_name: str, plan: dict,
                            code) -> None:
        path = os.path.join(
            self.entry_dir(key), "engine", _fn_filename(fn_name) + ".plan"
        )
        if os.path.exists(path):
            return
        payload = {
            "fn": fn_name,
            "eplan": EPLAN_VERSION,
            "magic": _PY_MAGIC,
            "plan": plan,
            "code": marshal.dumps(code),
        }
        self._write_atomic(path, pickle.dumps(payload, protocol=4))

    def load_engine_plan(self, key: str, fn_name: str):
        """One function's engine plan as ``(plan, code)``, or None."""
        path = os.path.join(
            self.entry_dir(key), "engine", _fn_filename(fn_name) + ".plan"
        )
        data = self._read(path)
        if data is None:
            return None
        try:
            payload = pickle.loads(data)
            if (
                payload["eplan"] != EPLAN_VERSION
                or payload["magic"] != _PY_MAGIC
                or payload["fn"] != fn_name
            ):
                return None
            return payload["plan"], marshal.loads(payload["code"])
        except Exception:
            return None  # corrupt plan: recompiled instead

    # -- aliases -------------------------------------------------------------

    def set_alias(self, digest: str, key: str) -> None:
        self._write_atomic(
            os.path.join(self.aliases, digest), key.encode()
        )

    def get_alias(self, digest: str) -> str | None:
        data = self._read(os.path.join(self.aliases, digest))
        if data is None:
            return None
        key = data.decode("ascii", "replace").strip()
        return key if len(key) == 64 and key.isalnum() else None

    # -- eviction & maintenance ----------------------------------------------

    def evict(self, key: str) -> None:
        """Drop a whole entry (meta.json first, so readers miss cleanly)."""
        entry = self.entry_dir(key)
        try:
            os.unlink(os.path.join(entry, "meta.json"))
        except OSError:
            pass
        shutil.rmtree(entry, ignore_errors=True)
        STATS.count("cache.evictions")

    def evict_function(self, key: str, fn_name: str) -> None:
        """Drop one function's derived artifacts (PDG shard, engine
        plan), keeping the module payload and other functions intact."""
        entry = self.entry_dir(key)
        filename = _fn_filename(fn_name)
        for sub, ext in (("pdg", ".pkl"), ("engine", ".plan")):
            try:
                os.unlink(os.path.join(entry, sub, filename + ext))
                STATS.count("cache.evictions")
            except OSError:
                pass

    def clear(self) -> int:
        """Remove every entry and alias; returns entries removed."""
        removed = 0
        for directory in (self.objects, self.aliases, self.tmp):
            try:
                names = os.listdir(directory)
            except OSError:
                continue
            for name in names:
                path = os.path.join(directory, name)
                removed += 1
                if os.path.isdir(path):
                    shutil.rmtree(path, ignore_errors=True)
                else:
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
        return removed

    def gc(self) -> dict:
        """Prune incomplete entries (no meta.json), entries from other
        format versions, dangling aliases, and leftover tmp files."""
        pruned_entries = 0
        pruned_aliases = 0
        pruned_tmp = 0
        try:
            entries = os.listdir(self.objects)
        except OSError:
            entries = []
        for key in entries:
            meta_path = os.path.join(self.objects, key, "meta.json")
            keep = False
            meta_raw = self._read(meta_path)
            if meta_raw is not None:
                try:
                    meta = json.loads(meta_raw)
                    keep = (
                        meta.get("format") == FORMAT_VERSION
                        and meta.get("key") == key
                    )
                except ValueError:
                    keep = False
            if not keep:
                shutil.rmtree(
                    os.path.join(self.objects, key), ignore_errors=True
                )
                pruned_entries += 1
        try:
            aliases = os.listdir(self.aliases)
        except OSError:
            aliases = []
        for digest in aliases:
            key = self.get_alias(digest)
            if key is None or not self.has_entry(key):
                try:
                    os.unlink(os.path.join(self.aliases, digest))
                except OSError:
                    pass
                pruned_aliases += 1
        try:
            leftovers = os.listdir(self.tmp)
        except OSError:
            leftovers = []
        for name in leftovers:
            try:
                os.unlink(os.path.join(self.tmp, name))
            except OSError:
                pass
            pruned_tmp += 1
        return {
            "pruned_entries": pruned_entries,
            "pruned_aliases": pruned_aliases,
            "pruned_tmp": pruned_tmp,
        }

    def stats(self) -> dict:
        """Entry/alias counts and on-disk footprint."""
        entries = 0
        pdg_shards = 0
        engine_plans = 0
        total_bytes = 0
        try:
            keys = os.listdir(self.objects)
        except OSError:
            keys = []
        for key in keys:
            entry = os.path.join(self.objects, key)
            if not os.path.exists(os.path.join(entry, "meta.json")):
                continue
            entries += 1
            for base, _dirs, files in os.walk(entry):
                for filename in files:
                    try:
                        total_bytes += os.path.getsize(
                            os.path.join(base, filename)
                        )
                    except OSError:
                        pass
                    if filename.endswith(".pkl"):
                        pdg_shards += 1
                    elif filename.endswith(".plan"):
                        engine_plans += 1
        try:
            aliases = len(os.listdir(self.aliases))
        except OSError:
            aliases = 0
        return {
            "root": self.root,
            "entries": entries,
            "aliases": aliases,
            "pdg_shards": pdg_shards,
            "engine_plans": engine_plans,
            "total_bytes": total_bytes,
        }
