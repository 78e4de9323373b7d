"""Differential validation of the symbolic dependence-test engine.

Three contracts over the whole workload registry:

* **subset** — with ``NOELLE_DEPTEST=1`` the PDG's edge multiset is a
  subset of the default build's on every workload (pruning only ever
  removes edges, never adds or reshapes).
* **inertness** — with the flag off, figure outputs are byte-identical
  to an explicit ``NOELLE_DEPTEST=0`` run (the engine is never even
  consulted: the counters stay at zero).
* **soundness** — every pair the flag-on PDG prunes is dynamically
  conflict-free: executing the workload under the memory observer never
  sees the two instructions touch a common address within one execution
  of their common loop.

The DOALL-unlock acceptance criterion (a loop the seed rejects that
parallelizes under the flag) is asserted on the registry workload that
exhibits it and on generated fuzz programs of the carried/mayalias
families.
"""

import json

import pytest

from repro.analysis.deptest import FunctionDepTest
from repro.analysis.loopinfo import LoopInfo
from repro.core.noelle import Noelle
from repro.experiments.figures import fig3_dependences, fig4_invariants
from repro.fuzz.gen import generate_program
from repro.frontend.codegen import compile_source
from repro.interp.interp import Interpreter, StepLimitExceeded
from repro.ir.instructions import Load, Store
from repro.perf import STATS
from repro.workloads.registry import all_workloads, get

WORKLOAD_NAMES = [w.name for w in all_workloads()]


def edge_label(value):
    parent = getattr(value, "parent", None)
    if parent is not None and hasattr(parent, "instructions"):
        fn = getattr(parent, "parent", None)
        index = (
            parent.instructions.index(value)
            if value in parent.instructions
            else -1
        )
        return f"{getattr(fn, 'name', '?')}:{parent.name}:{index}"
    return f"{type(value).__name__}:{getattr(value, 'name', '')}"


def pdg_edge_multiset(module):
    from collections import Counter

    pdg = Noelle(module).pdg()
    return pdg, Counter(
        "|".join(
            [
                edge.kind,
                edge.data_kind or "",
                str(edge.is_memory),
                str(edge.is_must),
                edge_label(edge.src.value),
                edge_label(edge.dst.value),
            ]
        )
        for edge in pdg.edges()
    )


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_pdg_edges_are_a_subset_with_deptest_on(workload, monkeypatch):
    monkeypatch.delenv("NOELLE_DEPTEST", raising=False)
    pdg_off, edges_off = pdg_edge_multiset(get(workload).compile())
    monkeypatch.setenv("NOELLE_DEPTEST", "1")
    pdg_on, edges_on = pdg_edge_multiset(get(workload).compile())
    extra = edges_on - edges_off
    assert not extra, f"deptest added PDG edges on {workload}: {extra}"
    assert pdg_on.memory_disproved >= pdg_off.memory_disproved
    assert pdg_on.memory_queries == pdg_off.memory_queries


def test_figures_identical_with_flag_off(monkeypatch):
    monkeypatch.delenv("NOELLE_DEPTEST", raising=False)
    STATS.reset()
    unset = json.dumps(
        {"fig3": fig3_dependences(), "fig4": fig4_invariants()},
        sort_keys=True,
    )
    assert STATS.get("deptest.pairs_tested") == 0  # engine never consulted
    monkeypatch.setenv("NOELLE_DEPTEST", "0")
    zero = json.dumps(
        {"fig3": fig3_dependences(), "fig4": fig4_invariants()},
        sort_keys=True,
    )
    assert unset == zero


def test_fig3_disproves_more_with_flag_on(monkeypatch):
    monkeypatch.delenv("NOELLE_DEPTEST", raising=False)
    off = {row["suite"]: row["noelle_disproved"] for row in fig3_dependences()}
    monkeypatch.setenv("NOELLE_DEPTEST", "1")
    on = {row["suite"]: row["noelle_disproved"] for row in fig3_dependences()}
    assert all(on[suite] >= off[suite] for suite in off)
    assert sum(on.values()) > sum(off.values())


def pruned_pair_claims(module):
    """The (loop, a, b) claims the flag-on PDG build prunes, as fuzz-oracle
    claim objects ready for dynamic validation."""
    from repro.fuzz.oracles import _DepClaim

    claims = []
    for fn in module.defined_functions():
        fdt = FunctionDepTest(fn)
        info = LoopInfo(fn)
        for loop in info.loops():
            accesses = [
                inst
                for block in loop.blocks
                for inst in block.instructions
                if isinstance(inst, (Load, Store))
            ]
            for i, a in enumerate(accesses):
                for b in accesses[i:]:
                    if not isinstance(a, Store) and not isinstance(b, Store):
                        continue
                    if not fdt.proves_independent(a, b):
                        continue
                    tester = fdt._testers[id(fdt._common_loop(a, b))]
                    verdict = tester.test_pair(a, b, scope="function")
                    claims.append(
                        _DepClaim(fn.name, loop, a, b, verdict)
                    )
    return claims


def loop_scope_claims(module):
    """Every provable loop-scope verdict (what carried/DOALL consume)."""
    from repro.analysis.deptest import DependenceTester
    from repro.fuzz.oracles import _DepClaim

    claims = []
    for fn in module.defined_functions():
        for loop in LoopInfo(fn).loops():
            tester = DependenceTester(loop)
            accesses = [
                inst
                for block in loop.blocks
                for inst in block.instructions
                if isinstance(inst, (Load, Store))
            ]
            for i, a in enumerate(accesses):
                for b in accesses[i:]:
                    if not isinstance(a, Store) and not isinstance(b, Store):
                        continue
                    verdict = tester.test_pair(a, b)
                    if verdict.is_independent or (
                        verdict.is_dependent and verdict.distance is not None
                    ):
                        claims.append(_DepClaim(fn.name, loop, a, b, verdict))
    return claims


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_static_verdicts_are_dynamically_consistent(workload, monkeypatch):
    """Pruned pairs never conflict; proven distances match observation."""
    from repro.fuzz.oracles import _check_dep_claim, _DepRecorder

    monkeypatch.setenv("NOELLE_DEPTEST", "1")
    module = get(workload).compile()
    claims = pruned_pair_claims(module) + loop_scope_claims(module)
    if not claims:
        pytest.skip(f"{workload}: nothing proven, nothing to validate")
    recorder = _DepRecorder(claims)
    interp = Interpreter(module, step_limit=50_000_000)
    interp.edge_observer = recorder.on_edge
    interp.memory_observer = recorder.on_access
    try:
        interp.run()
    except StepLimitExceeded:
        pytest.skip(f"{workload}: step limit hit under the observer")
    for claim in claims:
        violation = _check_dep_claim(claim, recorder)
        assert violation is None, violation


def doall_decisions(source, name):
    module = compile_source(source, name)
    noelle = Noelle(module)
    return {
        (l.structure.function.name, l.structure.header.name): l.is_doall()
        for l in noelle.loops()
    }


class TestDoallUnlock:
    def test_stringsearch_setup_loop_unlocks(self, monkeypatch):
        """The registry loop the seed rejects but the engine proves DOALL."""
        monkeypatch.delenv("NOELLE_DEPTEST", raising=False)
        module = get("stringsearch").compile()
        noelle = Noelle(module)
        target_off = [
            l
            for l in noelle.loops()
            if l.structure.function.name == "setup"
            and l.structure.header.name == "while.cond"
        ]
        assert target_off and not target_off[0].is_doall()
        monkeypatch.setenv("NOELLE_DEPTEST", "1")
        module = get("stringsearch").compile()
        noelle = Noelle(module)
        target_on = [
            l
            for l in noelle.loops()
            if l.structure.function.name == "setup"
            and l.structure.header.name == "while.cond"
        ]
        assert target_on and target_on[0].is_doall()

    @pytest.mark.parametrize(
        "family,seed", [("carried", 5), ("mayalias", 27), ("nested", 112)]
    )
    def test_fuzz_families_unlock_doall(self, family, seed, monkeypatch):
        program = generate_program(seed)
        assert program.family == family  # seed chosen for its family
        monkeypatch.delenv("NOELLE_DEPTEST", raising=False)
        off = doall_decisions(program.source, program.name)
        monkeypatch.setenv("NOELLE_DEPTEST", "1")
        on = doall_decisions(program.source, program.name)
        unlocked = [key for key in off if not off[key] and on.get(key)]
        assert unlocked, f"{family} seed {seed}: no DOALL unlock"

    def test_unlock_moves_the_counters(self, monkeypatch):
        monkeypatch.setenv("NOELLE_DEPTEST", "1")
        STATS.reset()
        module = get("stringsearch").compile()
        noelle = Noelle(module)
        for loop in noelle.loops():
            loop.is_doall()
        assert STATS.get("deptest.pairs_tested") > 0
        assert STATS.get("deptest.pdg_pairs_pruned") > 0
        assert STATS.get("deptest.pdg_edges_pruned") > 0
        # The loop-scope carried path fires where the function-scope
        # pruning cannot (symbolic offsets that only cancel per-run) and
        # the default graph's distance-0 match does not (the constants
        # differ; the stride's parity separates them).
        STATS.reset()
        module = compile_source(
            "int a[300];"
            " int f(int n) { int i;"
            "  for (i = 0; i < 100; i = i + 1) { a[2*i + n + 1] = a[2*i + n] + 1; }"
            "  return a[n]; }"
            " int main() { print_int(f(3)); return 0; }"
        )
        noelle = Noelle(module)
        for loop in noelle.loops():
            loop.is_doall()
        assert STATS.get("deptest.carried_disproved") > 0

    def test_default_graph_makes_the_distance_zero_proof(self, monkeypatch):
        """Generated program 5's ``cells[i % 4].lo`` read and write:
        the flag-off loop dependence graph already keeps the pair
        within one iteration, so the flag has nothing left to disprove."""
        monkeypatch.delenv("NOELLE_DEPTEST", raising=False)
        program = generate_program(5)
        module = compile_source(program.source, program.name)

        def field_lo(inst):
            return inst.pointer.name.startswith("lo.addr")

        pairs = []
        for loop in Noelle(module).loops():
            insts = list(loop.natural_loop.instructions())
            loads = [i for i in insts if isinstance(i, Load) and field_lo(i)]
            stores = [i for i in insts if isinstance(i, Store) and field_lo(i)]
            if loads and stores:
                pairs.append((loop, loads, stores))
        assert len(pairs) == 1
        loop, loads, stores = pairs[0]
        accesses = {id(i) for i in loads + stores}
        edges = [
            e
            for e in loop.dependence_graph.edges()
            if e.is_memory
            and id(e.src.value) in accesses
            and id(e.dst.value) in accesses
            and e.src.value is not e.dst.value
        ]
        assert edges
        assert not any(e.is_loop_carried for e in edges)
