"""Every registry workload through every transform: it commits, the
program still means the same, and the printed module has not moved.

21 workloads x the three parallelizers through the one verb
(``pipeline.parallelize(pipeline.load(m), t)``), and x the seven other
custom tools as PassManager transactions with a profile attached.  A
rollback is a failure here — a PassManager hides one from every caller
that only compares outputs — so this file lives outside the
``fault-injection`` / ``checks`` directory lists, where an injected
fault makes a rollback the expected outcome, and skips under
``NOELLE_FAULTS``.

``golden/module_digests.json`` holds the sha256 of every transformed
module's text (run this file as a script, with ``PYTHONPATH`` pointing
at the ``src`` to record from, to re-record it).  A refactor that claims
"byte-identical" changes no entry.
"""

import hashlib
import json
import os

import pytest

from repro.frontend import compile_source
from repro.ir import print_module, verify_module
from repro.robust import faults
from repro.robust.passmanager import PassManager
from repro.tools import pipeline
from repro.workloads import all_workloads, get

pytestmark = pytest.mark.skipif(
    faults.enabled_in_env(),
    reason="an injected fault makes a rollback the expected outcome",
)

WORKLOADS = [w.name for w in all_workloads()]
TOOLS = ("licm", "dead", "carat", "coos", "timesqueezer", "prvjeeves",
         "perspective")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "module_digests.json")


@pytest.fixture(autouse=True)
def default_configuration(monkeypatch):
    """The golden digests are the default PDG's (``NOELLE_DEPTEST`` off)."""
    monkeypatch.delenv("NOELLE_DEPTEST", raising=False)


def _digest(module) -> str:
    return hashlib.sha256(print_module(module).encode()).hexdigest()


def _parallelized(name, technique):
    module = get(name).compile()
    manager, count = pipeline.parallelize(pipeline.load(module), technique)
    return module, manager, count


def _tooled(name, tool):
    module = get(name).compile()
    noelle = pipeline.load(module)
    noelle.run_profiler()
    manager = PassManager(noelle)
    manager.run_registered(tool)
    return module, manager


def _record() -> dict:
    golden = {}
    for name in WORKLOADS:
        for technique in pipeline.TECHNIQUES:
            golden[f"{name}/{technique}"] = _digest(_parallelized(name, technique)[0])
        for tool in TOOLS:
            golden[f"{name}/{tool}"] = _digest(_tooled(name, tool)[0])
    return golden


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def sequential():
    """name -> the untransformed program's run, computed once a workload."""
    runs = {}

    def run_of(name):
        if name not in runs:
            runs[name] = pipeline.execute(get(name).compile())
            assert runs[name].trapped is None
        return runs[name]

    return run_of


def _assert_same_program(module, manager, baseline, engine=None):
    assert [str(r.error) for r in manager.rolled_back()] == []
    verify_module(module)
    result = pipeline.execute(module, engine=engine)
    assert result.trapped is None
    assert pipeline.outputs_equivalent(
        result.output + [result.return_value],
        baseline.output + [baseline.return_value],
    )


@pytest.mark.parametrize("technique", pipeline.TECHNIQUES)
@pytest.mark.parametrize("name", WORKLOADS)
def test_parallelization_commits(name, technique, sequential, golden):
    module, manager, _ = _parallelized(name, technique)
    _assert_same_program(module, manager, sequential(name))
    assert _digest(module) == golden[f"{name}/{technique}"]


@pytest.mark.parametrize("tool", TOOLS)
@pytest.mark.parametrize("name", WORKLOADS)
def test_custom_tool_commits(name, tool, sequential, golden):
    module, manager = _tooled(name, tool)
    _assert_same_program(module, manager, sequential(name))
    assert _digest(module) == golden[f"{name}/{tool}"]


def test_mcf_dswp_pipelines_three_loops_on_the_walker_too(sequential):
    """The pair that rolled back for ten PRs (a push placed between two
    header phis), on the engine the CI matrix does not pair it with."""
    module, manager, count = _parallelized("mcf", "dswp")
    assert count == 3
    _assert_same_program(module, manager, sequential("mcf"), engine="reference")


#: The ``mcf`` shape, minimal: a header phi that is not the last of its
#: group (``node``) is owned by the pointer-chasing stage and consumed by
#: the other, so its push must land after the *whole* phi group, not
#: right after its producer.
TWO_HEADER_PHIS = """
int next[64];
int cost[64];
int main() {
  int i;
  for (i = 0; i < 64; i = i + 1) { next[i] = (i * 7 + 1) % 64; cost[i] = i % 11; }
  int steps = 0;
  int node = 1;
  int total = 0;
  while (steps < 200) {
    total = total + cost[node];
    node = next[node];
    steps = steps + 1;
  }
  print_int(total);
  return total;
}
"""


def test_push_of_a_header_phi_lands_after_the_phi_group():
    baseline = pipeline.execute(compile_source(TWO_HEADER_PHIS))
    module = compile_source(TWO_HEADER_PHIS)
    manager, count = pipeline.parallelize(pipeline.load(module), "dswp")
    assert count == 2  # the fill loop and the walk
    _assert_same_program(module, manager, baseline)
    pushes = [
        (block.instructions.index(inst), sum(1 for _ in block.phis()))
        for fn in module.defined_functions()
        for block in fn.blocks
        for inst in block.instructions
        if inst.opcode == "call" and inst.called_function().name.startswith("queue_push")
    ]
    assert pushes and all(index >= phis for index, phis in pushes)


if __name__ == "__main__":
    with open(GOLDEN, "w") as handle:
        json.dump(_record(), handle, indent=1, sort_keys=True)
        handle.write("\n")
