"""The loop abstractions live and die with the function's PDG shard.

``Noelle`` keeps one :class:`Loop` per (function version, header block)
and hands the same object to every tool, so the LDG, the aSCCDAG, INV
and IV are computed once however many tools ask.  Three guarantees:

* **identity** — ``loops()``, ``loop_forest()`` and ``loop_of()`` return
  the same object per header; ``invalidate(fn)`` replaces exactly
  ``fn``'s loops and leaves every other function's, with what they
  already computed, alone;
* **coherence** — after any pass through the PassManager (committed or
  rolled back) every loop the long-lived facade serves equals the loop
  a fresh ``Noelle(module)`` derives from scratch;
* **economy** — at most one LDG per loop per function version.
"""

import os
import sys
from collections import Counter

import pytest

from repro.analysis.loopinfo import LoopInfo
from repro.core.noelle import Noelle
from repro.frontend import compile_source
from repro.ir.intrinsics import generated_functions
from repro.perf import STATS
from repro.robust.passmanager import PassManager
from repro.workloads import all_workloads
from tests.conftest import insert_dead_add

_E2E = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "benchmarks", "e2e"
)
if _E2E not in sys.path:
    sys.path.insert(0, _E2E)

import bigmod  # noqa: E402  (benchmarks/e2e: the bigmod generator)


def scaling_source(num_functions: int) -> str:
    """A module of ``num_functions`` independent memory-heavy kernels."""
    parts = []
    for k in range(num_functions):
        parts.append(f"""
int data{k}[256];
int aux{k}[256];

int work{k}(int n) {{
  int i;
  int s;
  s = 0;
  for (i = 0; i < n; i = i + 1) {{
    data{k}[i % 256] = i + {k};
    aux{k}[i % 256] = data{k}[i % 256] * 2;
    s = s + aux{k}[i % 256] - data{k}[(i + 7) % 256];
  }}
  return s;
}}
""")
    calls = " + ".join(f"work{k}(64)" for k in range(num_functions))
    parts.append(f"int main() {{ return {calls}; }}")
    return "\n".join(parts)


THREE_FUNCTIONS = """
int a[64];
int b[64];
int fill(int n) {
  int i; int j;
  for (i = 0; i < n; i = i + 1) {
    for (j = 0; j < 4; j = j + 1) { a[i] = a[i] + j; }
  }
  return n;
}
int scale(int n) {
  int i;
  for (i = 0; i < n; i = i + 1) { b[i] = a[i] * 3; }
  return n;
}
int total(int n) {
  int i; int s; s = 0;
  for (i = 0; i < n; i = i + 1) { s = s + b[i]; }
  return s;
}
int main() { fill(64); scale(64); print_int(total(64)); return 0; }
"""


def derive(loop):
    """Force every lazy sub-abstraction of ``loop``."""
    return (loop.dependence_graph, loop.sccdag,
            loop.invariants.invariants(), loop.induction_variables)


def shared(some, others):
    """Objects in both lists (both held by the caller, so ids are unique)."""
    return {id(x) for x in some} & {id(x) for x in others}


def loops_by_function(noelle):
    return {
        fn.name: list(noelle.loop_forest(fn).values())
        for fn in noelle.module.defined_functions()
    }


# -- (a) identity ------------------------------------------------------------------------


class TestIdentity:
    def setup_method(self):
        self.module = compile_source(THREE_FUNCTIONS)
        self.noelle = Noelle(self.module)

    def test_every_accessor_hands_out_the_same_loop_per_header(self):
        noelle = self.noelle
        listed = {id(l.structure.header): l for l in noelle.loops()}
        assert len(listed) == 4
        for fn in self.module.defined_functions():
            for loop in noelle.loop_forest(fn).values():
                assert listed[id(loop.structure.header)] is loop
            # A LoopInfo the facade never saw (the figures build their
            # own) names the same loops by header block.
            for natural in LoopInfo(fn).loops():
                assert noelle.loop_of(natural) is listed[id(natural.header)]
        # The forest nests the shared objects.
        forest = noelle.loop_forest(self.module.get_function("fill"))
        (root,) = forest.roots
        (child,) = root.children
        assert child.value.natural_loop.parent is root.value.natural_loop

    def test_invalidate_fn_replaces_only_that_functions_loops(self):
        noelle = self.noelle
        before = loops_by_function(noelle)
        derived = {
            name: [derive(l)[:2] for l in loops]
            for name, loops in before.items()
        }
        builds = STATS.get("loop.ldg_builds")

        scale = self.module.get_function("scale")
        insert_dead_add(scale)
        noelle.invalidate(scale)
        after = loops_by_function(noelle)
        for name in ("fill", "total", "main"):
            assert len(after[name]) == len(before[name])
            for old, new, (ldg, sccdag) in zip(
                before[name], after[name], derived[name]
            ):
                assert new is old
                assert new.dependence_graph is ldg and new.sccdag is sccdag
        (fresh,) = after["scale"]
        assert fresh is not before["scale"][0]
        assert STATS.get("loop.ldg_builds") == builds  # nothing rebuilt yet
        derive(fresh)
        assert STATS.get("loop.ldg_builds") == builds + 1
        # loops() renumbers; the objects are the cached ones.
        assert [l.structure.loop_id for l in noelle.loops()] == [0, 1, 2, 3]
        assert {id(l) for l in noelle.loops()} == {
            id(l) for loops in after.values() for l in loops
        }

    def test_invariants_share_the_loops_one_ldg(self):
        (loop,) = self.noelle.loop_forest(
            self.module.get_function("total")).values()
        builds = STATS.get("loop.ldg_builds")
        derive(loop)
        assert loop.invariants._dg is loop.dependence_graph
        assert STATS.get("loop.ldg_builds") == builds + 1

    def test_attach_profile_reorders_without_dropping(self):
        noelle = self.noelle
        before = {id(l) for l in noelle.loops()}
        ldgs = {id(l): l.dependence_graph for l in noelle.loops()}
        profile = noelle.run_profiler()
        loops = noelle.loops()
        assert {id(l) for l in loops} == before
        assert all(l.dependence_graph is ldgs[id(l)] for l in loops)
        hotness = [profile.loop_hotness(l.natural_loop) for l in loops]
        assert hotness == sorted(hotness, reverse=True)

    def test_loop_invalidate_resets_the_shared_object(self):
        # HELIX shrinks the header, then calls loop.invalidate() without
        # dropping the shard: every accessor must see the reset loop.
        noelle = self.noelle
        loop = noelle.loops()[0]
        ldg = loop.dependence_graph
        loop.invalidate()
        again = noelle.loop_of(loop.natural_loop)
        assert again is loop
        assert again.dependence_graph is not ldg

    @pytest.mark.parametrize("tool", ["carat", "coos", "timesqueezer"])
    def test_instrumenting_tools_leave_one_loop_per_header(self, tool):
        # CARAT, COOS and TIME rewrite every function: they go through
        # invalidate(fn) like everyone else, so the assembled list and
        # the per-function accessors cannot drift apart.
        noelle = self.noelle
        before = list(noelle.loops())
        for loop in before:
            derive(loop)
        manager = PassManager(noelle, fault_plan=None, checks=False)
        assert manager.run_registered(tool).status == "ok"
        listed = {id(l.structure.header): l for l in noelle.loops()}
        assert not shared(before, listed.values())
        for fn in self.module.defined_functions():
            for natural in LoopInfo(fn).loops():
                assert noelle.loop_of(natural) is listed[id(natural.header)]
            for loop in noelle.loop_forest(fn).values():
                assert listed[id(loop.structure.header)] is loop
        assert_coherent(noelle, f"after {tool}")

    def test_loop_of_rejects_a_loop_the_module_no_longer_has(self):
        noelle = self.noelle
        (natural,) = LoopInfo(self.module.get_function("scale")).loops()
        assert noelle.loop_of(natural).natural_loop.header is natural.header
        manager = PassManager(noelle, fault_plan=None, checks=False)
        assert manager.run_registered("doall").value >= 1  # outlines it
        with pytest.raises(ValueError, match="heads no loop"):
            noelle.loop_of(natural)

    def test_full_invalidate_drops_every_loop(self):
        noelle = self.noelle
        before = list(noelle.loops())  # kept alive: ids stay unique
        noelle.invalidate()
        assert not shared(before, noelle.loops())

    def test_outlined_task_functions_appear_on_the_next_assembly(self):
        noelle = self.noelle
        manager = PassManager(noelle, fault_plan=None, checks=False)
        assert manager.run_registered("doall").value >= 1
        tasks = generated_functions(self.module)
        assert tasks
        functions = {l.structure.function.name for l in noelle.loops()}
        assert functions >= {fn.name for fn in tasks}


# -- (b) coherence oracle ----------------------------------------------------------------


def loop_signature(loop):
    """Everything a tool can read off a loop, keyed by instruction id."""
    ldg = loop.dependence_graph
    ivs = loop.induction_variables
    governing = ivs.governing_iv()
    return {
        "nodes": Counter(
            (id(n.value), n.is_internal) for n in ldg.nodes()
        ),
        "edges": Counter(
            (id(e.src.value), id(e.dst.value), e.kind, e.data_kind,
             e.is_memory, e.is_must, e.is_loop_carried, e.distance)
            for e in ldg.edges()
        ),
        "sccs": Counter(
            (frozenset(id(i) for i in scc.instructions), scc.category,
             scc.is_induction, scc.reduction is not None)
            for scc in loop.sccdag.sccs
        ),
        "invariants": [id(i) for i in loop.invariants.invariants()],
        "ivs": Counter(
            (id(iv.phi), id(iv.start),
             iv.step if isinstance(iv.step, int) else id(iv.step),
             iv.is_governing, id(iv.exit_compare),
             id(iv.derived_from.phi) if iv.derived_from else None)
            for iv in ivs.ivs
        ),
        "governing": id(governing.phi) if governing is not None else None,
        "live_ins": [id(v) for v in loop.live_ins()],
        "live_outs": [id(v) for v in loop.live_outs()],
    }


def assert_coherent(noelle, when, exact=False):
    """Every loop ``noelle`` serves is the loop a from-scratch facade
    derives from the module as it is now.

    ``rebuilt`` is that facade over the same alias facts: every shard
    and every loop derived anew from the current bodies.  Against it
    everything is equal to the last edge, so neither a kept shard nor a
    kept LDG can hide a stale dependence.  ``fresh`` also re-solves
    points-to, and may disprove dependences the long-lived facade keeps:
    ``invalidate(fn)`` keeps points-to warm, so values a pass created
    fall back to may-alias and mod/ref facts about a rewritten callee
    stay conservative supersets.  Its LDG edges are compared as a subset
    unless ``exact`` (nothing outlined yet, or everything just dropped);
    all that tools decide on is equal.
    """
    module = noelle.module
    rebuilt, fresh = (
        Noelle(module, profile=noelle.profile()) for _ in range(2)
    )
    rebuilt.pdg().aa = noelle.alias_analysis()
    numbering = [
        [(id(l.structure.header), l.structure.loop_id) for l in facade.loops()]
        for facade in (noelle, rebuilt, fresh)
    ]
    assert numbering[0] == numbering[1] == numbering[2], when
    for fn in module.defined_functions():
        naturals = LoopInfo(fn).loops()
        assert noelle.loop_forest(fn).num_nodes() == len(naturals), (when, fn.name)
        for natural in naturals:
            where = (when, fn.name, natural.header.name)
            served = loop_signature(noelle.loop_of(natural))
            assert served == loop_signature(rebuilt.loop_of(natural)), where
            scratch = loop_signature(fresh.loop_of(natural))
            if not exact:
                for graph in ("nodes", "edges"):
                    assert not scratch.pop(graph) - served.pop(graph), where
            assert served == scratch, where


def _mutate_then_fail(noelle):
    fn = next(iter(noelle.module.defined_functions()))
    insert_dead_add(fn)
    noelle.invalidate(fn)
    noelle.loops()
    raise RuntimeError("forced rollback")


PASSES = ("rm-lc-dependences", "licm", "doall", "helix", "dswp")


def run_coherence_oracle(module):
    noelle = Noelle(module)
    noelle.run_profiler()
    manager = PassManager(noelle, fault_plan=None, checks=False)
    assert_coherent(noelle, "initial", exact=True)
    for name in PASSES:
        result = manager.run_registered(name)
        assert_coherent(
            noelle, f"after {name} ({result.status})",
            exact=result.rolled_back,
        )
    rolled_back = manager.run("forced-rollback", _mutate_then_fail)
    assert rolled_back.rolled_back
    assert_coherent(noelle, "after forced rollback", exact=True)


def _oracle_modules():
    params = [
        pytest.param(w.compile, id=w.name) for w in all_workloads()
    ]
    params.append(pytest.param(
        lambda: compile_source(scaling_source(6), "scaling"), id="pdg_scaling"
    ))
    return params


@pytest.mark.parametrize("build", _oracle_modules())
def test_long_lived_facade_matches_fresh_after_every_pass(build):
    run_coherence_oracle(build())


@pytest.mark.parametrize("build", _oracle_modules())
def test_coherence_holds_with_the_dependence_tests_on(build, monkeypatch):
    # NOELLE_DEPTEST is read when an LDG is built, not when the facade
    # is: cached LDGs and fresh ones must agree on carried bits and
    # distances under the flag too.
    monkeypatch.setenv("NOELLE_DEPTEST", "1")
    run_coherence_oracle(build())


# -- (c) economy --------------------------------------------------------------------------


def test_at_most_one_ldg_per_loop_per_function_version():
    module = compile_source(bigmod.generate(1, 1500), "bigmod")
    noelle = Noelle(module)
    #: one entry per function version: the loops that version has.
    versions = [
        len(LoopInfo(fn).loops()) for fn in module.defined_functions()
    ]
    known = {fn.name for fn in module.defined_functions()}
    invalidate = noelle.invalidate

    def recording_invalidate(fn=None):
        invalidate(fn)
        assert fn is not None  # nothing below needs the full drop
        versions.append(len(LoopInfo(fn).loops()))

    noelle.invalidate = recording_invalidate
    builds = STATS.get("loop.ldg_builds")
    for loop in noelle.loops():
        derive(loop)
    manager = PassManager(noelle, fault_plan=None, checks=False)
    assert manager.run_registered("licm").value > 0
    assert manager.run_registered("doall").value > 0
    generated = generated_functions(module)
    kernels = [
        fn for fn in module.defined_functions()
        if fn.name.startswith("kern") and fn not in generated
    ]
    for fn in kernels:
        insert_dead_add(fn)
        noelle.invalidate(fn)
        for loop in noelle.loops():  # every loop, not only fn's
            derive(loop)
    versions.extend(
        len(LoopInfo(fn).loops()) for fn in module.defined_functions()
        if fn.name not in known  # the outlined tasks, one version each
    )
    spent = STATS.get("loop.ldg_builds") - builds
    # Tight from both sides: every loop was asked for, and none twice.
    # (The module-wide loop list this replaces rebuilt every loop of the
    # module after every invalidation, and INV built a second LDG.)
    assert len(noelle.loops()) <= spent <= sum(versions)
