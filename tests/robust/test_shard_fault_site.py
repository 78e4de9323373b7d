"""The ``alias_query`` fault site inside a PDG shard build.

A shard build answers most alias queries from the analysis's memo and
adds its query counts to ``STATS`` once per shard.  The fault site is
still visited once per alias query, in query order, so:

* a counting plan (armed, never firing) sees exactly as many visits as
  the build adds to the ``aa.*.queries`` counters;
* an ``alias_query:N`` plan that fires in the middle of a shard build
  rolls back the same pass and leaves the same ``STATS`` totals as the
  per-query counting did (the figures below were recorded that way).
"""

import os
import sys

import pytest

from repro.analysis.aa import BasicAliasAnalysis
from repro.analysis.pointsto import AndersenAliasAnalysis
from repro.core.noelle import Noelle
from repro.core.pdg import PDG
from repro.frontend import compile_source
from repro.perf import STATS
from repro.robust import faults
from repro.robust.faults import FaultPlan
from repro.robust.passmanager import PassManager
from repro.workloads import get

_E2E = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "benchmarks", "e2e"
)
if _E2E not in sys.path:
    sys.path.insert(0, _E2E)

import bigmod  # noqa: E402  (benchmarks/e2e: the bigmod generator)

#: Counters a pass transaction's shard builds and rollback move.
COUNTED = ("aa.", "pdg.", "deptest.", "passmanager.")


@pytest.fixture(autouse=True)
def default_configuration(monkeypatch):
    """The figures below are the default PDG's (``NOELLE_DEPTEST`` off)."""
    monkeypatch.delenv("NOELLE_DEPTEST", raising=False)


def _module(name):
    if name == "bigmod":
        # Small enough for tier-1, large enough for memo hits.
        return compile_source(bigmod.generate(1, 800), "bigmod")
    return get(name).compile()


def _delta(before: dict, after: dict) -> dict:
    return {
        name: after[name] - before.get(name, 0)
        for name in sorted(after)
        if name.startswith(COUNTED) and after[name] != before.get(name, 0)
    }


@pytest.mark.parametrize("analysis", ["andersen", "basic"])
@pytest.mark.parametrize("name", ["qsort", "bigmod"])
def test_a_shard_build_visits_the_site_once_per_alias_query(name, analysis):
    module = _module(name)
    aa = (AndersenAliasAnalysis(module) if analysis == "andersen"
          else BasicAliasAnalysis())
    plan = FaultPlan("alias_query", 10**9)  # counts, never fires
    before = STATS.snapshot()
    with faults.armed(plan):
        PDG(module, aa).materialize()
    delta = _delta(before, STATS.snapshot())
    queries = sum(n for key, n in delta.items()
                  if key.startswith("aa.") and key.endswith(".queries"))
    assert queries > 0
    assert plan.counts["alias_query"] == queries
    if name == "bigmod":  # the memo answers some of them
        assert delta[f"aa.{analysis}.memo_hits"] > 0


@pytest.mark.parametrize("name, trigger, expected", [
    # The 12th visit is the basic-rules query inside the 6th Andersen
    # query (a memo miss): the 6th Andersen query counts, it does not.
    ("qsort", 12, {
        "aa.andersen.queries": 6, "aa.basic.queries": 5,
        "passmanager.ok": 1, "passmanager.rollbacks": 1,
        "pdg.shard_builds": 2,
    }),
    # The 31st visit is the 16th Andersen query itself: it never counts.
    ("qsort", 31, {
        "aa.andersen.queries": 15, "aa.basic.queries": 15,
        "passmanager.ok": 1, "passmanager.rollbacks": 1,
        "pdg.shard_builds": 2,
    }),
    # A fault among memo hits.
    ("bigmod", 700, {
        "aa.andersen.memo_hits": 531, "aa.andersen.queries": 615,
        "aa.basic.queries": 84,
        "passmanager.ok": 1, "passmanager.rollbacks": 1,
        "pdg.shard_builds": 4, "pdg.shard_invalidations": 1,
    }),
])
def test_a_fault_mid_shard_rolls_back_the_same_pass(name, trigger, expected):
    noelle = Noelle(_module(name))
    plan = FaultPlan("alias_query", trigger)
    manager = PassManager(noelle, fault_plan=plan, checks=False)
    before = STATS.snapshot()
    statuses = [manager.run_registered(p).status for p in ("licm", "dead")]
    assert plan.fired_at == ("alias_query", trigger)
    assert statuses == ["rolled_back", "ok"]
    assert _delta(before, STATS.snapshot()) == expected
