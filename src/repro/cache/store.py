"""Content-addressed artifact store backing the compilation cache.

Layout under the cache root (``NOELLE_CACHE_DIR``)::

    objects/<key>/module.nir        binary module (repro.ir.binio)
    objects/<key>/meta.json         entry metadata — written LAST, so its
                                    presence commits the entry
    objects/<key>/<kind>/<fn>       one function's artifact of one kind
    aliases/<digest>                source-text digest -> entry key
    tmp/                            staging area for atomic publishes

``<key>`` is the SHA-256 of the canonical printed module text prefixed
with a format/version salt (binary format version, engine plan version),
so any encoding change naturally invalidates every old entry.  Every
file is published atomically: written to ``tmp/`` and ``os.replace``'d
into place, so concurrent processes (serve workers, ``jobs=N`` pools)
can share one cache directory without locks — readers see either the
old complete file or the new complete file, never a torn one.

The store moves bytes.  What a ``<kind>`` directory holds, how its
files are encoded and versioned, and when one is bad is declared by the
kinds in `repro.cache.binding`; the store names none of them.  The one
check it makes itself is on the module payload: its SHA-256 must match
``meta.json`` (a mismatch is treated as poisoning — the entry is evicted
and the lookup reported as a miss).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

from ..interp.engine import EPLAN_VERSION
from ..ir.binio import FORMAT_VERSION, BinFormatError, read_module
from ..ir.module import Module
from ..perf import STATS

#: Environment variable pointing at the shared cache directory; the
#: cache is disabled when unset.
CACHE_DIR_ENV = "NOELLE_CACHE_DIR"

#: Salt prefixed to every hashed text.  Includes the binary format and
#: engine plan versions: bumping either orphans all old entries.
KEY_SALT = f"repro-noelle-cache-v1:nir{FORMAT_VERSION}:eplan{EPLAN_VERSION}:"

_counter = 0


def _fn_filename(name: str) -> str:
    """A filesystem-safe, collision-free filename for a function name."""
    safe = "".join(
        c if c.isalnum() or c in "._-" else f"%{ord(c):02x}" for c in name
    )
    if safe != name or len(safe) > 80:
        safe = safe[:48] + "~" + hashlib.sha256(name.encode()).hexdigest()[:16]
    return safe


def _listdir(path: str) -> list[str]:
    try:
        return os.listdir(path)
    except OSError:
        return []


def _unlink(path: str) -> bool:
    try:
        os.unlink(path)
    except OSError:
        return False
    return True


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
        from ..ir.binwrite import write_module

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

    # -- per-function artifacts ----------------------------------------------

    def artifact_path(self, key: str, kind: str, fn_name: str) -> str:
        return os.path.join(self.entry_dir(key), kind, _fn_filename(fn_name))

    def has_artifact(self, key: str, kind: str, fn_name: str) -> bool:
        return os.path.exists(self.artifact_path(key, kind, fn_name))

    def publish_artifact(self, key: str, kind: str, fn_name: str,
                         data: bytes) -> None:
        self._write_atomic(self.artifact_path(key, kind, fn_name), data)

    def load_artifacts(self, key: str, kind: str,
                       fn_names: list[str]) -> dict[str, bytes]:
        """The ``kind`` files of an entry among the functions
        ``fn_names``, by function name; only their files are read."""
        directory = os.path.join(self.entry_dir(key), kind)
        files: dict[str, bytes] = {}
        present = set(_listdir(directory)) if fn_names else ()
        for fn_name in fn_names:
            filename = _fn_filename(fn_name)
            if filename in present:
                data = self._read(os.path.join(directory, filename))
                if data is not None:
                    files[fn_name] = data
        return files

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
        _unlink(os.path.join(entry, "meta.json"))
        shutil.rmtree(entry, ignore_errors=True)
        STATS.count("cache.evictions")

    def evict_artifact(self, key: str, kind: str, fn_name: str) -> None:
        """Drop one function's ``kind`` file, if it is there."""
        if _unlink(self.artifact_path(key, kind, fn_name)):
            STATS.count("cache.evictions")

    def evict_function(self, key: str, fn_name: str) -> None:
        """Drop one function's file of every kind the entry holds,
        keeping the module payload and other functions intact."""
        entry = self.entry_dir(key)
        for kind in _listdir(entry):
            if os.path.isdir(os.path.join(entry, kind)):
                self.evict_artifact(key, kind, fn_name)

    def clear(self) -> int:
        """Remove every entry and alias; returns entries removed."""
        removed = 0
        for directory in (self.objects, self.aliases, self.tmp):
            for name in _listdir(directory):
                path = os.path.join(directory, name)
                removed += 1
                if os.path.isdir(path):
                    shutil.rmtree(path, ignore_errors=True)
                else:
                    _unlink(path)
        return removed

    def gc(self) -> dict:
        """Prune incomplete entries (no meta.json), entries from other
        format versions, dangling aliases, and leftover tmp files."""
        pruned_entries = 0
        pruned_aliases = 0
        for key in _listdir(self.objects):
            meta_raw = self._read(os.path.join(self.objects, key, "meta.json"))
            try:
                meta = json.loads(meta_raw) if meta_raw is not None else {}
            except ValueError:
                meta = {}
            if meta.get("format") != FORMAT_VERSION or meta.get("key") != key:
                shutil.rmtree(
                    os.path.join(self.objects, key), ignore_errors=True
                )
                pruned_entries += 1
        for digest in _listdir(self.aliases):
            key = self.get_alias(digest)
            if key is None or not self.has_entry(key):
                _unlink(os.path.join(self.aliases, digest))
                pruned_aliases += 1
        leftovers = _listdir(self.tmp)
        for name in leftovers:
            _unlink(os.path.join(self.tmp, name))
        return {
            "pruned_entries": pruned_entries,
            "pruned_aliases": pruned_aliases,
            "pruned_tmp": len(leftovers),
        }

    def stats(self) -> dict:
        """Entry/alias counts, artifact files per kind, and on-disk
        footprint."""
        entries = 0
        artifacts: dict[str, int] = {}
        total_bytes = 0
        for key in _listdir(self.objects):
            entry = os.path.join(self.objects, key)
            if not os.path.exists(os.path.join(entry, "meta.json")):
                continue
            entries += 1
            for base, _dirs, files in os.walk(entry):
                if base != entry:
                    kind = os.path.basename(base)
                    artifacts[kind] = artifacts.get(kind, 0) + len(files)
                for filename in files:
                    try:
                        total_bytes += os.path.getsize(
                            os.path.join(base, filename)
                        )
                    except OSError:
                        pass
        return {
            "root": self.root,
            "entries": entries,
            "aliases": len(_listdir(self.aliases)),
            "artifacts": dict(sorted(artifacts.items())),
            "total_bytes": total_bytes,
        }
