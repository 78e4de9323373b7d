"""PDG construction and loop dependence graph tests."""

from repro import ir
from repro.analysis.aa import BasicAliasAnalysis
from repro.analysis.loopinfo import LoopInfo
from repro.analysis.pointsto import AndersenAliasAnalysis
from repro.core.depgraph import DependenceGraph
from repro.core.pdg import PDG
from repro.frontend import compile_source


def build_pdg(source, strong=True):
    module = compile_source(source)
    aa = AndersenAliasAnalysis(module) if strong else BasicAliasAnalysis()
    return module, PDG(module, aa)


class TestDependenceGraphTemplate:
    def test_internal_external_split(self):
        graph = DependenceGraph()
        graph.add_node("a", internal=True)
        graph.add_node("x", internal=False)
        graph.add_edge("a", "x", "data", "RAW")
        assert [n.value for n in graph.internal_nodes()] == ["a"]
        assert [n.value for n in graph.external_nodes()] == ["x"]

    def test_subgraph_externalizes_boundary(self):
        graph = DependenceGraph()
        for v in "abc":
            graph.add_node(v)
        graph.add_edge("a", "b", "data", "RAW")
        graph.add_edge("b", "c", "data", "RAW")
        sub = graph.subgraph(["b"])
        internals = [n.value for n in sub.internal_nodes()]
        externals = {n.value for n in sub.external_nodes()}
        assert internals == ["b"]
        assert externals == {"a", "c"}
        assert sub.num_edges() == 2

    def test_dependences_and_dependents(self):
        graph = DependenceGraph()
        graph.add_edge("a", "b", "data", "RAW")
        assert [e.src.value for e in graph.dependences_of("b")] == ["a"]
        assert [e.dst.value for e in graph.dependents_of("a")] == ["b"]

    def test_edge_validation(self):
        import pytest

        graph = DependenceGraph()
        with pytest.raises(ValueError):
            graph.add_edge("a", "b", "weird")
        with pytest.raises(ValueError):
            graph.add_edge("a", "b", "data", "XYZ")


class TestPDGConstruction:
    def test_register_dependences_follow_def_use(self):
        module, pdg = build_pdg(
            "int main() { int a = 1; int b = a + 2; return b * 3; }"
        )
        # After folding this may shrink; check on a non-foldable program.
        module, pdg = build_pdg(
            """
int g = 2;
int main() { int a = g + 1; return a * 3; }
"""
        )
        main = module.get_function("main")
        mul = [i for i in main.instructions() if i.opcode == "mul"][0]
        add = [i for i in main.instructions() if i.opcode == "add"][0]
        producers = {e.src.value for e in pdg.dependences_of(mul) if e.is_data()}
        assert add in producers

    def test_memory_raw_dependence(self):
        module, pdg = build_pdg(
            """
int cell = 0;
int main() { cell = 7; return cell; }
"""
        )
        main = module.get_function("main")
        store = [i for i in main.instructions() if isinstance(i, ir.Store)][0]
        load = [i for i in main.instructions() if isinstance(i, ir.Load)][0]
        edges = pdg.edges_between(store, load)
        assert any(e.data_kind == "RAW" and e.is_memory for e in edges)
        # Same scalar global: a must dependence.
        assert any(e.is_must for e in edges)

    def test_disjoint_memory_no_dependence(self):
        module, pdg = build_pdg(
            """
int a = 0;
int b = 0;
int main() { a = 1; return b; }
"""
        )
        main = module.get_function("main")
        store = [i for i in main.instructions() if isinstance(i, ir.Store)][0]
        load = [i for i in main.instructions() if isinstance(i, ir.Load)][0]
        assert not pdg.edges_between(store, load)
        assert pdg.memory_disproved >= 1

    def test_control_dependences(self):
        module, pdg = build_pdg(
            """
int flag = 1;
int main() {
  int r = 0;
  if (flag) { r = 5; }
  return r;
}
"""
        )
        main = module.get_function("main")
        branch = main.entry.terminator
        controlled = [e.dst.value for e in pdg.dependents_of(branch) if e.is_control()]
        assert controlled  # the then-block instructions

    def test_weaker_aa_disproves_less(self):
        source = """
int a[20];
int b[20];
void kernel(int *p, int *q) {
  int i;
  for (i = 0; i < 20; i = i + 1) { q[i] = p[i] + 1; }
}
int main() { kernel(a, b); return b[3]; }
"""
        _, weak = build_pdg(source, strong=False)
        _, strong = build_pdg(source, strong=True)
        assert weak.memory_queries == strong.memory_queries
        assert strong.memory_disproved > weak.memory_disproved


class TestLoopDependenceGraph:
    def _loop_dg(self, source):
        module, pdg = build_pdg(source)
        fn = module.get_function("main")
        loop = LoopInfo(fn).loops()[0]
        return module, pdg.loop_dependence_graph(loop)

    def test_register_loop_carried(self):
        _, ldg = self._loop_dg(
            "int main() { int i; int s = 0; for (i = 0; i < 5; i = i + 1) { s = s + i; } return s; }"
        )
        carried = ldg.loop_carried_edges()
        assert carried
        assert all(not e.is_memory for e in carried if e.is_data())

    def test_affine_accesses_not_carried(self):
        _, ldg = self._loop_dg(
            """
int a[100];
int main() {
  int i;
  for (i = 0; i < 100; i = i + 1) { a[i] = a[i] + 1; }
  return a[0];
}
"""
        )
        memory_carried = [
            e for e in ldg.loop_carried_edges() if e.is_memory and e.is_data()
        ]
        assert memory_carried == []

    def test_recurrence_is_carried(self):
        _, ldg = self._loop_dg(
            """
int a[100];
int main() {
  int i;
  for (i = 1; i < 100; i = i + 1) { a[i] = a[i - 1] + 1; }
  return a[99];
}
"""
        )
        memory_carried = [
            e for e in ldg.loop_carried_edges() if e.is_memory and e.is_data()
        ]
        assert memory_carried
        kinds = {e.data_kind for e in memory_carried}
        assert "RAW" in kinds  # the reverse store->load edge materialized

    def test_invariant_address_is_carried(self):
        _, ldg = self._loop_dg(
            """
int cell = 0;
int main() {
  int i;
  for (i = 0; i < 9; i = i + 1) { cell = cell + i; }
  return cell;
}
"""
        )
        memory_carried = [
            e for e in ldg.loop_carried_edges() if e.is_memory and e.is_data()
        ]
        assert memory_carried

    def test_live_ins_and_outs(self):
        module, pdg = build_pdg(
            """
int bound = 10;
int main() {
  int limit = bound * 2;
  int i;
  int s = 0;
  for (i = 0; i < limit; i = i + 1) { s = s + i; }
  return s;
}
"""
        )
        fn = module.get_function("main")
        loop = LoopInfo(fn).loops()[0]
        ldg = pdg.loop_dependence_graph(loop)
        live_in_names = {v.name for v in ldg.live_in_values()}
        assert any("t" in n or "limit" in n for n in live_in_names)
        live_outs = ldg.live_out_values()
        assert len(live_outs) == 1  # the accumulator phi
