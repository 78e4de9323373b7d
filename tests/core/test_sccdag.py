"""aSCCDAG tests: condensation, classification, topological order."""

from repro.core import Noelle
from repro.core.sccdag import SCC
from repro.frontend import compile_source


def sccdag_of(source, loop_index=0):
    module = compile_source(source)
    noelle = Noelle(module)
    loop = noelle.loops()[loop_index]
    return loop, loop.sccdag


class TestClassification:
    def test_pure_doall_loop(self):
        _, dag = sccdag_of(
            """
int a[50];
int main() {
  int i;
  for (i = 0; i < 50; i = i + 1) { a[i] = i * 2; }
  return a[0];
}
"""
        )
        assert not dag.sequential_sccs()
        assert not dag.reducible_sccs()
        induction = [s for s in dag.sccs if s.is_induction]
        assert induction  # the governing IV cycle is independent

    def test_reduction_detected(self):
        _, dag = sccdag_of(
            """
int a[50];
int main() {
  int i; int s = 0;
  for (i = 0; i < 50; i = i + 1) { s = s + a[i]; }
  return s;
}
"""
        )
        reducible = dag.reducible_sccs()
        assert len(reducible) == 1
        descriptor = reducible[0].reduction
        assert descriptor is not None
        assert descriptor.operator == "add"
        assert descriptor.identity == 0

    def test_float_multiply_reduction(self):
        _, dag = sccdag_of(
            """
double a[20];
double main() {
  int i; double p = 1.0;
  for (i = 0; i < 20; i = i + 1) { p = p * (a[i] + 1.0); }
  return p;
}
"""
        )
        reducible = dag.reducible_sccs()
        assert len(reducible) == 1
        assert reducible[0].reduction.operator == "fmul"
        assert reducible[0].reduction.identity == 1.0

    def test_memory_recurrence_is_sequential(self):
        _, dag = sccdag_of(
            """
int a[50];
int main() {
  int i;
  for (i = 1; i < 50; i = i + 1) { a[i] = a[i - 1] * 2; }
  return a[49];
}
"""
        )
        assert dag.sequential_sccs()

    def test_register_recurrence_non_reduction_is_sequential(self):
        # x = x * 2 + 1 is affine but not a plain reduction (mixed ops).
        _, dag = sccdag_of(
            """
int main() {
  int i; int x = 1;
  for (i = 0; i < 20; i = i + 1) { x = x * 2 + 1; }
  return x;
}
"""
        )
        assert dag.sequential_sccs()

    def test_accumulator_used_in_loop_not_reducible(self):
        # The running value is observed inside the loop, so cloning the
        # accumulator would change semantics.
        _, dag = sccdag_of(
            """
int a[30];
int main() {
  int i; int s = 0;
  for (i = 0; i < 30; i = i + 1) {
    s = s + i;
    a[i] = s;
  }
  return a[29];
}
"""
        )
        assert not dag.reducible_sccs()
        assert dag.sequential_sccs()


class TestStructure:
    def test_scc_of_lookup(self):
        loop, dag = sccdag_of(
            """
int main() {
  int i; int s = 0;
  for (i = 0; i < 5; i = i + 1) { s = s + i; }
  return s;
}
"""
        )
        for phi in loop.structure.header.phis():
            assert dag.scc_of(phi) is not None

    def test_topological_order_respects_edges(self):
        loop, dag = sccdag_of(
            """
int a[40];
int main() {
  int i; int s = 0;
  for (i = 0; i < 40; i = i + 1) {
    int x = i * 3;
    int y = x + 1;
    s = s + y;
  }
  return s;
}
"""
        )
        order = dag.topological_order()
        position = {id(s): k for k, s in enumerate(order)}
        for edge in dag.edges():
            assert position[id(edge.src.value)] < position[id(edge.dst.value)]

    def test_every_instruction_in_exactly_one_scc(self):
        loop, dag = sccdag_of(
            """
int a[10];
int main() {
  int i;
  for (i = 0; i < 10; i = i + 1) { a[i] = i; }
  return a[1];
}
"""
        )
        counted = sum(len(s.instructions) for s in dag.sccs)
        assert counted == loop.structure.num_instructions()


def list_queue_topological_order(dag):
    """The reference order: Kahn's algorithm over the edge list, ready
    SCCs taken first-in first-out from a plain list."""
    in_degree = {id(s): 0 for s in dag.sccs}
    adjacency = {id(s): [] for s in dag.sccs}
    for edge in dag.edges():
        adjacency[id(edge.src.value)].append(edge.dst.value)
        in_degree[id(edge.dst.value)] += 1
    ready = [s for s in dag.sccs if in_degree[id(s)] == 0]
    order = []
    while ready:
        scc = ready.pop(0)
        order.append(scc)
        for succ in adjacency[id(scc)]:
            in_degree[id(succ)] -= 1
            if in_degree[id(succ)] == 0:
                ready.append(succ)
    return order


class TestTopologicalOrder:
    def test_order_is_unchanged_on_every_workload_loop(self):
        from repro.workloads import all_workloads

        loops = 0
        for workload in all_workloads():
            for loop in Noelle(workload.compile()).loops():
                dag = loop.sccdag
                assert dag.topological_order() == list_queue_topological_order(dag)
                loops += 1
        assert loops > 40

    def test_a_cycle_is_an_error_not_an_assert(self):
        import pytest

        _, dag = sccdag_of(
            """
int a[40];
int main() {
  int i; int s = 0;
  for (i = 0; i < 40; i = i + 1) { s = s + a[i] * 3; }
  return s;
}
"""
        )
        edge = dag.edges()[0]
        dag.add_edge(edge.dst.value, edge.src.value, "control")
        with pytest.raises(RuntimeError, match="SCCDAG has a cycle"):
            dag.topological_order()
