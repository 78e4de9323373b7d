"""Golden digest of the graphs derived per loop: the LDG and the aSCCDAG.

``golden/derived_graphs.json`` holds, per registry workload and for the
seed-1 ``bigmod`` module, one sha256 over a canonical listing of every
loop's derived graphs, recorded with ``NOELLE_DEPTEST`` off and on.  The
listing names instructions by their position in the function, so it is
independent of the process:

* the LDG's nodes in table order (position, internal or external) and
  every edge in order: endpoints, kind, data kind, memory, must,
  carried, distance;
* every SCC in condensation order: members, category, reduction
  operator and phi, and its carried edges as indices into the LDG edge
  list;
* the aSCCDAG's edges and its ``topological_order()``.

Re-record by running this file as a script (``PYTHONPATH=src``).
"""

import hashlib
import json
import os
import sys

import pytest

from repro.core.noelle import Noelle
from repro.frontend import compile_source
from repro.workloads import all_workloads, get

_E2E = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "benchmarks", "e2e"
)
if _E2E not in sys.path:
    sys.path.insert(0, _E2E)

import bigmod  # noqa: E402  (benchmarks/e2e: the bigmod generator)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "derived_graphs.json")
#: The module ``bigmod_analysis`` builds at seed 1.
BIGMOD_SEED = 1
BIGMOD_INSTS = 6000
FLAGS = {"off": "0", "on": "1"}


def _module(name):
    if name == "bigmod":
        return compile_source(bigmod.generate(BIGMOD_SEED, BIGMOD_INSTS), name)
    return get(name).compile()


def loop_listing(loop) -> list[str]:
    fn = loop.structure.function
    position = {id(inst): i for i, inst in enumerate(fn.instructions())}

    def pos(value):
        return position.get(id(value), "?")

    ldg = loop.dependence_graph
    lines = [f"loop {fn.name} %{loop.structure.header.name}"]
    lines.append("nodes " + " ".join(
        f"{pos(node.value)}{'' if node.is_internal else 'x'}"
        for node in ldg.nodes()
    ))
    edges = ldg.edges()
    edge_index = {id(edge): k for k, edge in enumerate(edges)}
    for edge in edges:
        lines.append(
            f"e {pos(edge.src.value)} {pos(edge.dst.value)} {edge.kind} "
            f"{edge.data_kind} m={int(edge.is_memory)} "
            f"must={int(edge.is_must)} c={int(edge.is_loop_carried)} "
            f"d={edge.distance}"
        )
    dag = loop.sccdag
    scc_index = {id(scc): k for k, scc in enumerate(dag.sccs)}
    for scc in dag.sccs:
        reduction = scc.reduction
        lines.append(
            f"scc {' '.join(str(pos(i)) for i in scc.instructions)} "
            f"{scc.category} iv={int(scc.is_induction)} red="
            + ("-" if reduction is None
               else f"{reduction.operator}@{pos(reduction.phi)}")
            + " carried="
            + ",".join(str(edge_index[id(e)]) for e in scc.carried_edges)
        )
    for edge in dag.edges():
        lines.append(
            f"dag {scc_index[id(edge.src.value)]} "
            f"{scc_index[id(edge.dst.value)]} {edge.kind} {edge.data_kind} "
            f"m={int(edge.is_memory)} must={int(edge.is_must)} "
            f"c={int(edge.is_loop_carried)}"
        )
    lines.append("topo " + " ".join(
        str(scc_index[id(scc)]) for scc in dag.topological_order()
    ))
    return lines


def derived_digest(name) -> str:
    lines = []
    for loop in Noelle(_module(name)).loops():
        lines.extend(loop_listing(loop))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _names() -> list[str]:
    return [w.name for w in all_workloads()] + ["bigmod"]


def _golden() -> dict:
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("flag", sorted(FLAGS))
@pytest.mark.parametrize("name", _names())
def test_derived_graphs_match_recorded_digest(name, flag, monkeypatch):
    monkeypatch.setenv("NOELLE_DEPTEST", FLAGS[flag])
    assert derived_digest(name) == _golden()[flag][name]


if __name__ == "__main__":
    golden = {}
    for flag, value in FLAGS.items():
        os.environ["NOELLE_DEPTEST"] = value
        golden[flag] = {name: derived_digest(name) for name in _names()}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {GOLDEN}")
