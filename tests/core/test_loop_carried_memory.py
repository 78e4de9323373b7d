"""Loop-carried memory dependences read the one address linearization.

The loop dependence graph calls a memory edge intra-iteration only when
both endpoints linearize (``DependenceTester.access_of``) to the same
object, symbols, constant and non-zero stride, with the stride at least
each access's size.  An address reached through a pointer into the
middle of an array therefore keeps its offset: ``p = &a[5]`` makes
``p[i]`` and ``a[i]`` five slots apart, a carried dependence that every
parallelizer must respect.
"""

import pytest

from repro import ir
from repro.analysis.loopinfo import LoopInfo
from repro.analysis.scev import ScalarEvolution
from repro.core import Noelle
from repro.frontend import compile_source
from repro.ir.instructions import Load, Store
from repro.tools.pipeline import execute, parallelize

POINTER_OFFSET = """
int a[410];
int main() {
  int i;
  int s;
  int *p;
  for (i = 0; i < 410; i = i + 1) { a[i] = i * 7 + 3; }
  p = &a[5];
  for (i = 0; i < 400; i = i + 1) { a[i] = p[i] * 3 + 1; }
  s = 0;
  for (i = 0; i < 410; i = i + 1) { s = s * 31 + a[i]; }
  print_int(s);
  return 0;
}
"""

#: ``a[i] = p[i]`` with ``p = &a[5]``: the store's ``elem_ptr`` indexes
#: the array, the load's indexes a pointer derived from it.
CHAINED_IR = """
@a = global [64 x i64]
define @main() -> i64 {
entry:
  %p = elem_ptr [64 x i64]* @a, i64 0, i64 {offset}
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %i.next, %body ]
  %cmp = icmp slt i64 %i, i64 50
  br i1 %cmp, label %body, label %exit
body:
  %src = elem_ptr i64* %p, i64 %i
  %v = load i64, i64* %src
  %dst = elem_ptr [64 x i64]* @a, i64 0, i64 %i
  store i64 %v, i64* %dst
  %i.next = add i64 %i, i64 1
  br label %header
exit:
  ret i64 0
}
"""


def carried_memory_pairs(ldg):
    """(src, dst) kinds of the graph's carried store/load edges."""
    return {
        (type(e.src.value).__name__, type(e.dst.value).__name__)
        for e in ldg.loop_carried_edges()
        if e.is_memory
        and isinstance(e.src.value, (Load, Store))
        and isinstance(e.dst.value, (Load, Store))
    }


def copy_loop(module):
    """``main``'s one loop that both loads and stores, as a Noelle loop."""
    loops = [
        loop
        for loop in Noelle(module).loops()
        if loop.structure.function.name == "main"
        and {"Load", "Store"}
        <= {type(i).__name__ for i in loop.natural_loop.instructions()}
    ]
    assert len(loops) == 1
    return loops[0]


@pytest.fixture(params=["0", "1"], ids=["deptest-off", "deptest-on"])
def flag(request, monkeypatch):
    monkeypatch.setenv("NOELLE_DEPTEST", request.param)
    return request.param


class TestCarriedThroughAPointerOffset:
    def test_minic_pointer_offset_is_carried(self, flag):
        loop = copy_loop(compile_source(POINTER_OFFSET))
        pairs = carried_memory_pairs(loop.dependence_graph)
        assert ("Store", "Load") in pairs and ("Load", "Store") in pairs
        assert not loop.is_doall()

    def test_chained_elem_ptr_is_carried(self, flag):
        module = ir.parse_module(CHAINED_IR.replace("{offset}", "5"))
        pairs = carried_memory_pairs(copy_loop(module).dependence_graph)
        assert ("Store", "Load") in pairs and ("Load", "Store") in pairs

    def test_chained_elem_ptr_at_offset_zero_is_intra_iteration(self, flag):
        module = ir.parse_module(CHAINED_IR.replace("{offset}", "0"))
        assert carried_memory_pairs(copy_loop(module).dependence_graph) == set()


@pytest.mark.parametrize("technique", ["doall", "helix", "dswp"])
def test_parallelized_pointer_offset_prints_the_sequential_output(technique):
    sequential = execute(compile_source(POINTER_OFFSET))
    assert sequential.trapped is None
    noelle = Noelle(compile_source(POINTER_OFFSET))
    parallelize(noelle, technique, num_cores=4)
    result = execute(noelle.module, num_cores=4)
    assert result.trapped is None
    assert result.output == sequential.output


def test_each_ldg_creates_at_most_one_scalar_evolution(monkeypatch):
    built = []
    original = ScalarEvolution.__init__

    def counting(self, loop, *args, **kwargs):
        built.append(loop)
        original(self, loop, *args, **kwargs)

    monkeypatch.setattr(ScalarEvolution, "__init__", counting)
    monkeypatch.setenv("NOELLE_DEPTEST", "1")
    # The recurrence's pair stays carried, so the tests refine it too.
    module = compile_source(
        "int b[101]; int main() { int i;"
        " for (i = 0; i < 100; i = i + 1) { b[i + 1] = b[i] + 1; }"
        " return b[100]; }"
    )
    fn = module.get_function("main")
    pdg = Noelle(module).pdg()
    pdg.function_dependence_graph(fn)  # the shard's own testers
    for loop in LoopInfo(fn).loops():
        before = len(built)
        pdg.loop_dependence_graph(loop)
        assert len(built) - before <= 1
    assert built
