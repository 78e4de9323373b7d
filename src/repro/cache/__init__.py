"""repro.cache — content-addressed artifact cache for warm cold-starts.

Enabled by pointing ``NOELLE_CACHE_DIR`` at a directory (shared safely
across concurrent processes).  Caches, per module keyed by SHA-256 of
the canonical printed IR plus a format/version salt, the binary
``.nir`` module and two per-function artifact kinds (`ArtifactKind`):
PDG shards and compiled-engine plans.  See DESIGN.md §12.
"""

from .binding import (
    ModuleCacheBinding,
    attach,
    cached_compile,
    enabled,
    get_store,
    load_ir_binary,
    load_ir_text,
    module_key,
    publish_artifacts,
)
from .store import CACHE_DIR_ENV, KEY_SALT, ArtifactStore

__all__ = [
    "ArtifactStore",
    "CACHE_DIR_ENV",
    "KEY_SALT",
    "ModuleCacheBinding",
    "attach",
    "cached_compile",
    "enabled",
    "get_store",
    "load_ir_binary",
    "load_ir_text",
    "module_key",
    "publish_artifacts",
]
