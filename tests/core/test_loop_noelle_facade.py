"""Loop (L) facade, Noelle facade, LoopStructure, reduction edge cases,
and the SCCDAG partitioner."""

import pytest

from repro import ir
from repro.core import Noelle
from repro.core.loopstructure import LoopStructure
from repro.core.partitioner import SCCDAGPartitioner
from repro.frontend import compile_source
from repro.perf import STATS


SOURCE = """
int a[100];
int main() {
  int i; int s = 0;
  for (i = 0; i < 100; i = i + 1) { a[i] = i * 2; }
  for (i = 0; i < 100; i = i + 1) { s = s + a[i]; }
  print_int(s);
  return s;
}
"""


class TestNoelleFacade:
    def test_demand_driven_caching(self):
        module = compile_source(SOURCE)
        noelle = Noelle(module)
        # Nothing computed until asked.
        assert noelle._pdg is None and noelle._callgraph is None
        pdg = noelle.pdg()
        assert noelle.pdg() is pdg  # cached
        cg = noelle.call_graph()
        assert noelle.call_graph() is cg
        assert noelle.loops() is noelle.loops()

    def test_invalidate_drops_caches(self):
        module = compile_source(SOURCE)
        noelle = Noelle(module)
        pdg = noelle.pdg()
        noelle.invalidate()
        assert noelle._pdg is None
        assert noelle.pdg() is not pdg

    def test_loop_ids_are_stable(self):
        module = compile_source(SOURCE)
        noelle = Noelle(module)
        ids = [loop.structure.loop_id for loop in noelle.loops()]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)

    def test_profile_orders_loops_hot_first(self):
        module = compile_source(SOURCE)
        noelle = Noelle(module)
        profile = noelle.run_profiler()
        loops = noelle.loops()
        hotness = [profile.loop_hotness(l.natural_loop) for l in loops]
        assert hotness == sorted(hotness, reverse=True)

    def test_loop_forest(self):
        source = """
int main() {
  int i; int j; int s = 0;
  for (i = 0; i < 4; i = i + 1) {
    for (j = 0; j < 4; j = j + 1) { s = s + 1; }
  }
  return s;
}
"""
        module = compile_source(source)
        noelle = Noelle(module)
        forest = noelle.loop_forest(module.get_function("main"))
        assert len(forest.roots) == 1
        assert len(forest.roots[0].children) == 1

    def test_embedded_pdg_reuse_via_load(self):
        from repro.tools import embed_pdg, load

        module = compile_source(SOURCE)
        embedded = embed_pdg(module)
        builds = STATS.get("pdg.shard_builds")
        solves = STATS.get("pointsto.solves")
        noelle = load(module)
        assert noelle.pdg().num_edges() == embedded.num_edges()
        # Rebuilt from metadata: no shard built, no alias analysis run.
        assert STATS.get("pdg.shard_builds") == builds
        assert STATS.get("pointsto.solves") == solves


class TestLoopFacade:
    def test_lazy_subabstractions(self):
        module = compile_source(SOURCE)
        noelle = Noelle(module)
        loop = noelle.loops()[0]
        assert loop._sccdag is None and loop._ivs is None
        _ = loop.sccdag
        assert loop._sccdag is not None
        _ = loop.induction_variables
        assert loop._ivs is not None
        loop.invalidate()
        assert loop._sccdag is None and loop._ivs is None

    def test_live_boundary(self):
        module = compile_source(SOURCE)
        noelle = Noelle(module)
        reduction_loop = noelle.loops()[1]
        outs = reduction_loop.live_outs()
        assert len(outs) == 1
        assert reduction_loop.reductions()


class TestLoopStructure:
    def test_queries(self):
        module = compile_source(SOURCE)
        noelle = Noelle(module)
        structure = noelle.loops()[0].structure
        assert structure.function.name == "main"
        assert structure.num_blocks() >= 2
        assert structure.latches()
        assert structure.exiting_blocks()
        assert structure.exit_blocks()
        assert structure.pre_header() is not None
        assert structure.depth() == 1
        assert structure.is_while_shaped()
        assert structure.num_instructions() == sum(
            len(b.instructions) for b in structure.basic_blocks()
        )

    def test_metadata_attachment(self):
        module = compile_source(SOURCE)
        structure = Noelle(module).loops()[0].structure
        structure.metadata["noelle.option"] = {"force": True}
        assert structure.metadata["noelle.option"]["force"]


class TestReductionEdgeCases:
    def _reductions(self, source):
        module = compile_source(source)
        return Noelle(module).loops()[-1].reductions()

    def test_subtraction_not_reducible(self):
        # s = s - a[i] lowers to sub: not commutative-associative as
        # written (real NOELLE handles it by negation; we must not
        # misclassify it as a plain reduction over 'sub').
        reductions = self._reductions("""
int a[20];
int main() {
  int i; int s = 100;
  for (i = 0; i < 20; i = i + 1) { s = s - a[i]; }
  return s;
}
""")
        assert all(r.operator != "sub" for r in reductions)

    def test_two_independent_reductions(self):
        module = compile_source("""
int a[30];
int main() {
  int i; int s = 0; int x = 0;
  for (i = 0; i < 30; i = i + 1) {
    s = s + a[i];
    x = x ^ a[i];
  }
  print_int(s + x);
  return s;
}
""")
        loop = Noelle(module).loops()[0]
        operators = sorted(r.operator for r in loop.reductions())
        assert operators == ["add", "xor"]

    def test_descriptor_values(self):
        module = compile_source("""
int a[10];
int main() {
  int i; int s = 7;
  for (i = 0; i < 10; i = i + 1) { s = s + a[i]; }
  return s;
}
""")
        loop = Noelle(module).loops()[0]
        descriptor = loop.reductions()[0]
        assert descriptor.identity == 0
        initial = descriptor.initial_value()
        assert isinstance(initial, ir.ConstantInt) and initial.value == 7
        assert descriptor.exit_value().opcode == "add"


class TestPartitioner:
    def _partitioner(self, exclude_skeleton=True):
        module = compile_source("""
int main() {
  int i; int s = 0;
  for (i = 0; i < 50; i = i + 1) {
    int x = (i * 3 + 1) % 11;
    int y = (x * x + 2) % 13;
    int z = (y * 5 + x) % 17;
    s = s + z;
  }
  return s;
}
""")
        noelle = Noelle(module)
        loop = noelle.loops()[0]
        exclude = set()
        if exclude_skeleton:
            iv = loop.governing_iv()
            exclude = {id(i) for i in [iv.phi, *iv.update_instructions()]}
            for block in loop.structure.basic_blocks():
                if block.terminator is not None:
                    exclude.add(id(block.terminator))
        return SCCDAGPartitioner(loop.sccdag, exclude)

    def test_groups_are_topologically_ordered(self):
        partitioner = self._partitioner()
        groups = partitioner.colocated_groups()
        assert len(groups) >= 3

    def test_partition_count_respected(self):
        partitioner = self._partitioner()
        for k in (1, 2, 3):
            partitions = partitioner.partition(k)
            assert 1 <= len(partitions) <= k
            # Every instruction appears in exactly one partition.
            all_ids = [id(i) for p in partitions for i in p]
            assert len(all_ids) == len(set(all_ids))

    def test_balance_is_reasonable(self):
        partitioner = self._partitioner()
        partitions = partitioner.partition(2)
        if len(partitions) == 2:
            from repro.interp.interp import INSTRUCTION_COSTS

            costs = [
                sum(INSTRUCTION_COSTS.get(i.opcode, 1) for i in p)
                for p in partitions
            ]
            assert max(costs) < 20 * max(1, min(costs))

    def test_exclusion_respected(self):
        partitioner = self._partitioner(exclude_skeleton=True)
        for partition in partitioner.partition(3):
            assert not any(id(i) in partitioner.exclude for i in partition)
