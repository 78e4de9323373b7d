"""Tests for the noelle-* tools: whole-IR, PDG embedding, rm-lc-deps,
profiling pipeline, binary generation, and the full Figure 1 flow."""

from repro import ir
from repro.core import Noelle
from repro.core.pdg import PDG
from repro.frontend import compile_source
from repro.interp import Interpreter
from repro.perf import STATS
from repro.robust.faults import enabled_in_env as faults_enabled
from repro.tools import (
    embed_pdg,
    has_embedded_pdg,
    helix_pipeline,
    load,
    load_embedded_pdg,
    make_binary,
    measure_architecture,
    meta_clean,
    meta_prof_embed,
    prof_coverage,
    remove_loop_carried_dependences,
    whole_ir_from_sources,
)
from tests.conftest import outputs_match


class TestWholeIR:
    def test_multiple_translation_units(self):
        main_src = "int helper(int x);\nint main() { return helper(20); }"
        lib_src = "int helper(int x) { return x + 22; }"
        module = whole_ir_from_sources([main_src, lib_src], ["-lm"])
        assert Interpreter(module).run().return_value == 42
        from repro.tools import link_options_of

        assert link_options_of(module) == ["-lm"]

    def test_single_unit(self):
        module = whole_ir_from_sources(["int main() { return 7; }"])
        assert Interpreter(module).run().return_value == 7


class TestPDGEmbedding:
    SOURCE = """
int cell = 0;
int main() {
  cell = 3;
  return cell + 1;
}
"""

    def test_roundtrip(self):
        module = compile_source(self.SOURCE)
        original = embed_pdg(module)
        assert has_embedded_pdg(module)
        restored = load_embedded_pdg(module)
        assert restored is not None
        assert restored.num_edges() == original.num_edges()
        assert restored.memory_queries == original.memory_queries
        # Edge multiset matches kind-for-kind.
        def signature(pdg):
            return sorted(
                (e.kind, e.data_kind or "", e.is_memory, e.is_must)
                for e in pdg.edges()
            )
        assert signature(restored) == signature(original)

    def test_load_uses_embedded_pdg(self):
        module = compile_source(self.SOURCE)
        original = embed_pdg(module)
        builds = STATS.get("pdg.shard_builds")
        solves = STATS.get("pointsto.solves")
        pdg = load(module).pdg()
        assert pdg.num_edges() == original.num_edges()
        # Reconstructed, not recomputed.
        assert STATS.get("pdg.shard_builds") == builds
        assert STATS.get("pointsto.solves") == solves

    def test_stale_embedding_is_not_loaded(self):
        # Regression: an embedding outlived the code it described.  On
        # susan, embed -> LICM (hoists) -> load() handed back the
        # pre-LICM edges, register "dependences" between unrelated
        # instructions included, and nothing was raised.
        from repro.analysis.pointsto import AndersenAliasAnalysis
        from repro.robust.passmanager import PassManager
        from repro.workloads import get

        module = get("susan").compile()
        embed_pdg(module)
        manager = PassManager(Noelle(module), fault_plan=None)
        assert manager.run_registered("licm").value > 0
        stale = STATS.get("pdg.embedded_stale")
        assert load_embedded_pdg(module) is None
        assert STATS.get("pdg.embedded_stale") == stale + 1

        def signature(pdg):
            return sorted(
                (id(e.src.value), id(e.dst.value), e.kind, e.data_kind or "",
                 e.is_memory, e.is_must)
                for e in pdg.edges()
            )

        pdg = load(module).pdg()  # falls through to recomputation
        fresh = PDG(module, AndersenAliasAnalysis(module))
        assert signature(pdg) == signature(fresh)
        for edge in pdg.edges():
            if edge.is_data() and not edge.is_memory:
                assert any(
                    op is edge.src.value for op in edge.dst.value.operands
                )
        # Embedding a profile afterwards does not make an embedding stale.
        embed_pdg(module)
        meta_prof_embed(module, prof_coverage(module))
        assert load_embedded_pdg(module) is not None

    def test_meta_clean_removes_embedding(self):
        module = compile_source(self.SOURCE)
        embed_pdg(module)
        meta_clean(module)
        assert not has_embedded_pdg(module)


class TestRmLcDependences:
    def test_promotes_global_accumulator(self):
        source = """
int total = 0;
int a[50];
int main() {
  int i;
  for (i = 0; i < 50; i = i + 1) { total = total + a[i] + i; }
  return total;
}
"""
        baseline = Interpreter(compile_source(source)).run()
        module = compile_source(source)
        noelle = Noelle(module)
        promoted = remove_loop_carried_dependences(noelle)
        assert promoted == 1
        ir.verify_module(module)
        assert Interpreter(module).run().return_value == baseline.return_value
        # The loop is now reducible.
        loop = [l for l in Noelle(module).loops() if l.structure.depth() == 1][0]
        assert loop.reductions()

    def test_aliased_cell_not_promoted(self):
        source = """
int cells[10];
int main() {
  int i;
  int *p = cells;
  int *q = cells;
  for (i = 0; i < 10; i = i + 1) {
    *p = *p + 1;
    q[0] = q[0] * 2;
  }
  return cells[0];
}
"""
        baseline = Interpreter(compile_source(source)).run()
        module = compile_source(source)
        remove_loop_carried_dependences(Noelle(module))
        assert Interpreter(module).run().return_value == baseline.return_value

    def test_observing_call_blocks_promotion(self):
        source = """
int total = 0;
int peek() { return total; }
int main() {
  int i; int s = 0;
  for (i = 0; i < 10; i = i + 1) {
    total = total + 1;
    s = s + peek();
  }
  return s;
}
"""
        baseline = Interpreter(compile_source(source)).run()
        module = compile_source(source)
        promoted = remove_loop_carried_dependences(Noelle(module))
        assert promoted == 0  # peek() reads the cell mid-loop
        assert Interpreter(module).run().return_value == baseline.return_value


class TestArchAndBinary:
    def test_measure_architecture(self):
        arch = measure_architecture(4, smt=2)
        assert arch.num_logical_cores == 8
        assert arch.latency(0, 1) > 0

    def test_binary_runs(self):
        module = whole_ir_from_sources(["int main() { print_int(5); return 5; }"])
        binary = make_binary(module)
        result = binary.run()
        assert result.output == [5]
        assert result.parallel_executions == []


class TestFigure1Pipeline:
    def test_end_to_end(self):
        main_src = """
int values[900];
void fill(int n);
int score(int v);
int total = 0;
int main() {
  int i;
  fill(900);
  for (i = 0; i < 900; i = i + 1) {
    total = total + score(values[i]);
  }
  print_int(total);
  return total;
}
"""
        lib_src = """
int values[900];
void fill(int n) {
  int i;
  for (i = 0; i < n; i = i + 1) { values[i] = (i * 31 + 7) % 64; }
}
int score(int v) { return (v * v + 5) % 113; }
"""
        sequential = whole_ir_from_sources([main_src, lib_src])
        baseline = Interpreter(sequential).run()

        module = helix_pipeline([main_src, lib_src], num_cores=8)
        binary = make_binary(module, num_cores=8)
        result = binary.run()
        assert result.trapped is None
        assert outputs_match(result.output, baseline.output)
        if not faults_enabled():
            # Under NOELLE_FAULTS a pipeline pass may (deliberately) roll
            # back, so only semantics is guaranteed — not the speedup.
            assert result.parallel_executions  # at least one parallel region
            assert baseline.cycles / result.cycles > 2.0  # a real speedup
