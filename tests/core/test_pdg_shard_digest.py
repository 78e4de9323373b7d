"""Golden digest of every PDG shard, and of the counters a shard build adds.

``golden/pdg_shards.json`` holds, per registry workload and for the
seed-1 ``bigmod`` module, with ``NOELLE_DEPTEST`` off and on, and for
each of the two alias analyses:

* ``shards`` — one sha256 over the ``export_shard`` payload of every
  defined function, built in module order.  The payload names
  instructions by position and lists the edges in build order, so the
  digest pins the edges, their attributes and their order;
* ``memory_queries`` / ``memory_disproved`` — the Figure 3 counters;
* ``counters`` — the ``STATS`` deltas of the build: the ``aa.*`` query
  and memo-hit counts, ``pdg.shard_builds`` / ``pdg.pairs_pruned`` and,
  with the tests on, ``deptest.pdg_pairs_pruned`` / ``deptest.pdg_edges_pruned``.

A change to how a shard is built that claims to build the same graph
moves no entry.  Re-record by running this file as a script
(``PYTHONPATH=src``).
"""

import hashlib
import json
import os
import sys

import pytest

from repro.analysis.aa import BasicAliasAnalysis
from repro.analysis.pointsto import AndersenAliasAnalysis
from repro.core.pdg import PDG
from repro.frontend import compile_source
from repro.perf import STATS
from repro.workloads import all_workloads, get

_E2E = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "benchmarks", "e2e"
)
if _E2E not in sys.path:
    sys.path.insert(0, _E2E)

import bigmod  # noqa: E402  (benchmarks/e2e: the bigmod generator)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "pdg_shards.json")
#: The module ``bigmod_analysis`` builds at seed 1.
BIGMOD_SEED = 1
BIGMOD_INSTS = 6000
FLAGS = {"off": "0", "on": "1"}
ANALYSES = {
    "andersen": AndersenAliasAnalysis,
    "basic": lambda module: BasicAliasAnalysis(),
}
#: Counters a shard build adds to (prefixes).
COUNTED = ("aa.", "pdg.", "deptest.pdg_")


def _module(name):
    if name == "bigmod":
        return compile_source(bigmod.generate(BIGMOD_SEED, BIGMOD_INSTS), name)
    return get(name).compile()


def shard_record(module, analysis) -> dict:
    """Build every shard of ``module`` under ``analysis``; its digest entry."""
    pdg = PDG(module, ANALYSES[analysis](module))
    before = STATS.snapshot()
    pdg.materialize()
    after = STATS.snapshot()
    digest = hashlib.sha256()
    for fn in module.defined_functions():
        payload = pdg.export_shard(fn)
        digest.update(json.dumps(payload, sort_keys=True).encode())
        digest.update(b"\n")
    return {
        "shards": digest.hexdigest(),
        "memory_queries": pdg.memory_queries,
        "memory_disproved": pdg.memory_disproved,
        "counters": {
            name: after[name] - before.get(name, 0)
            for name in sorted(after)
            if name.startswith(COUNTED) and after[name] != before.get(name, 0)
        },
    }


def workload_record(name) -> dict:
    module = _module(name)
    return {analysis: shard_record(module, analysis) for analysis in ANALYSES}


def _names() -> list[str]:
    return [w.name for w in all_workloads()] + ["bigmod"]


def _golden() -> dict:
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("flag", sorted(FLAGS))
@pytest.mark.parametrize("name", _names())
def test_pdg_shards_match_recorded_digest(name, flag, monkeypatch):
    monkeypatch.setenv("NOELLE_DEPTEST", FLAGS[flag])
    assert workload_record(name) == _golden()[flag][name]


if __name__ == "__main__":
    golden = {}
    for flag, value in FLAGS.items():
        os.environ["NOELLE_DEPTEST"] = value
        golden[flag] = {name: workload_record(name) for name in _names()}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {GOLDEN}")
