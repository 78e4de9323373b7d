"""Loop dependence graphs and aSCCDAGs pay only for what is asked.

* A compile that runs the ``bigmod_analysis`` recipe — every loop's
  aSCCDAG, invariants and induction variables, then LICM and DOALL —
  never fills a loop dependence graph's out-map and never creates an
  edge between SCCs (``loop.ldg_out_maps`` and ``sccdag.edge_builds``
  stay 0).  DSWP, whose partitioner walks the aSCCDAG's edges, creates
  them, and pipelines ``mcf`` exactly as recorded.
* ``NOELLE_DEPTEST`` is read a fixed number of times per loop
  dependence graph, however many edges it classifies.
"""

import hashlib
import json
import os
import sys

import pytest

from repro.analysis import deptest
from repro.core.noelle import Noelle
from repro.frontend import compile_source
from repro.ir import print_module
from repro.perf import STATS
from repro.robust.passmanager import PassManager
from repro.tools import pipeline
from repro.workloads import get

_E2E = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "benchmarks", "e2e"
)
if _E2E not in sys.path:
    sys.path.insert(0, _E2E)

import bigmod  # noqa: E402  (benchmarks/e2e: the bigmod generator)

MODULE_DIGESTS = os.path.join(
    os.path.dirname(__file__), os.pardir, "xforms", "golden",
    "module_digests.json",
)
LAZY_COUNTERS = ("loop.ldg_out_maps", "sccdag.edge_builds")


def _counters() -> dict:
    return {name: STATS.get(name) for name in LAZY_COUNTERS}


def _spent(before: dict) -> dict:
    return {name: STATS.get(name) - before[name] for name in LAZY_COUNTERS}


def test_the_bigmod_analysis_recipe_builds_no_out_map_and_no_dag_edge():
    module = compile_source(bigmod.generate(2, 1500), "bigmod")
    noelle = Noelle(module)
    before = _counters()
    loops = noelle.loops()
    for loop in loops:
        loop.sccdag
        loop.invariants.invariants()
        loop.induction_variables
    manager = PassManager(noelle, fault_plan=None, checks=False)
    assert manager.run_registered("licm").value > 0
    assert manager.run_registered("doall", num_cores=4).value > 0
    assert len(loops) > 5
    assert _spent(before) == {name: 0 for name in LAZY_COUNTERS}
    # The counters do see a query that needs the maps.
    ldg = noelle.loops()[0].dependence_graph
    ldg.dependents_of(ldg.internal_nodes()[0].value)
    ldg.dependents_of(ldg.internal_nodes()[0].value)
    noelle.loops()[0].sccdag.topological_order()
    assert _spent(before) == {name: 1 for name in LAZY_COUNTERS}


def test_dswp_builds_dag_edges_and_pipelines_mcf_as_recorded(monkeypatch):
    monkeypatch.delenv("NOELLE_DEPTEST", raising=False)
    before = _counters()
    module = get("mcf").compile()
    manager, count = pipeline.parallelize(pipeline.load(module), "dswp")
    assert count == 3 and not manager.rolled_back()
    assert _spent(before)["sccdag.edge_builds"] > 0
    with open(MODULE_DIGESTS) as handle:
        recorded = json.load(handle)["mcf/dswp"]
    assert hashlib.sha256(print_module(module).encode()).hexdigest() == recorded


@pytest.fixture(scope="module")
def big_module():
    return compile_source(bigmod.generate(1, 6000), "bigmod")


@pytest.mark.parametrize("flag", ["0", "1"])
def test_deptest_flag_is_read_per_graph_not_per_edge(flag, big_module,
                                                     monkeypatch):
    monkeypatch.setenv("NOELLE_DEPTEST", flag)
    calls = []
    read = deptest.deptest_enabled

    def counted():
        calls.append(None)
        return read()

    # The PDG imports the flag's reader where a shard or a loop's graph
    # is built, so patching its module counts every read.
    monkeypatch.setattr(deptest, "deptest_enabled", counted)
    noelle = Noelle(big_module)
    pdg = noelle.pdg()
    pdg.materialize()  # shard builds read the flag too: not counted below
    sized = []
    for loop in noelle.loops():
        del calls[:]
        ldg = pdg.loop_dependence_graph(loop.natural_loop)
        sized.append((ldg.num_edges(), len(calls)))
    largest_edges, largest_reads = max(sized)
    assert largest_edges > 1000
    assert 1 <= largest_reads <= 3
    assert all(reads <= 3 for _, reads in sized)
