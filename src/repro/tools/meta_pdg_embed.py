"""``noelle-meta-pdg-embed`` — compute the PDG once, carry it as metadata.

The PDG is the most expensive abstraction (it runs the whole-module alias
analyses).  This tool computes it and stores every function's shard, in
the PDG's own export form (`PDG.export_shard`), in the module's metadata
— which rides ``.nir`` unchanged — so a later ``noelle-load`` adopts the
shards instead of re-running any memory analysis.

The embedding is stamped with the digest of the printed module (metadata
is not printed, so embedding a profile afterwards does not disturb it):
once a transformation has changed the code the shards describe, the
embedding is stale and is not loaded.
"""

from __future__ import annotations

from functools import partial

from ..analysis.pointsto import AndersenAliasAnalysis
from ..core.pdg import PDG
from ..ir import print_module
from ..ir.module import Module
from ..perf import STATS

PDG_SHARDS_KEY = "noelle.pdg.shards"
PDG_DIGEST_KEY = "noelle.pdg.digest"


def _digest(module: Module) -> str:
    import hashlib  # here, not at import: see `repro.tools.pipeline.load`

    return hashlib.sha256(print_module(module).encode()).hexdigest()


def embed_pdg(module: Module, pdg: PDG | None = None) -> PDG:
    """Compute (or accept) the PDG and embed it; returns the PDG used."""
    if pdg is None:
        pdg = PDG(module, AndersenAliasAnalysis(module))
    shards = {}
    for fn in module.defined_functions():
        payload = pdg.export_shard(fn)
        if payload is not None:
            shards[fn.name] = payload
    module.metadata[PDG_SHARDS_KEY] = shards
    module.metadata[PDG_DIGEST_KEY] = _digest(module)
    return pdg


def load_embedded_pdg(module: Module, aa=None) -> PDG | None:
    """The embedded PDG, its shards adopted rather than rebuilt.

    ``aa`` (an alias analysis or a zero-argument supplier of one, see
    `PDG`; by default the analysis `embed_pdg` uses) is consulted only
    if a shard is invalidated or was never embedded.  None when nothing
    is embedded, or when the module no longer prints as it did when the
    shards were computed.
    """
    shards = module.metadata.get(PDG_SHARDS_KEY)
    if not isinstance(shards, dict):
        return None
    if module.metadata.get(PDG_DIGEST_KEY) != _digest(module):
        STATS.count("pdg.embedded_stale")
        return None
    if aa is None:
        aa = partial(AndersenAliasAnalysis, module)
    pdg = PDG(module, aa)
    for fn in module.defined_functions():
        if fn.name in shards:
            pdg.adopt_shard(fn, shards[fn.name])
    return pdg


def has_embedded_pdg(module: Module) -> bool:
    return PDG_SHARDS_KEY in module.metadata
