"""LICM, DEAD, CARAT, COOS, PRVJ, TIME, Perspective tests."""

import pytest

from repro import ir
from repro.core import Noelle
from repro.core.profiler import Profiler
from repro.frontend import compile_source
from repro.interp import Interpreter
from repro.perf import STATS
from repro.runtime import ParallelMachine
from repro.xforms import (
    CARAT,
    DOALL,
    LICM,
    CompilerTiming,
    DeadFunctionEliminator,
    Perspective,
    PRVJeeves,
    TimeSqueezer,
    timing_accuracy,
)
from tests.conftest import outputs_match


def run(module, **kwargs):
    result = Interpreter(module, **kwargs).run()
    assert result.trapped is None, result.trapped
    return result


class TestLICM:
    SOURCE = """
int factor = 5;
int a[100];
int main() {
  int i;
  for (i = 0; i < 100; i = i + 1) {
    int k = factor * 3 + 2;
    a[i] = i * k;
  }
  return a[50];
}
"""

    def test_hoists_and_preserves(self):
        baseline = run(compile_source(self.SOURCE))
        module = compile_source(self.SOURCE)
        hoisted = LICM(Noelle(module)).run()
        assert hoisted >= 2
        ir.verify_module(module)
        result = run(module)
        assert result.return_value == baseline.return_value
        assert result.cycles < baseline.cycles

    def test_hoists_more_than_llvm_single_pass(self):
        from repro.analysis.aa import BasicAliasAnalysis
        from repro.analysis.dominators import DominatorTree
        from repro.analysis.loopinfo import LoopInfo
        from repro.baselines.invariants_llvm import invariants_llvm

        module = compile_source(self.SOURCE)
        fn = module.get_function("main")
        dom = DominatorTree(fn)
        loop = LoopInfo(fn, dom).loops()[0]
        llvm_found = invariants_llvm(loop, dom, BasicAliasAnalysis())
        noelle = Noelle(compile_source(self.SOURCE))
        noelle_found = noelle.loops()[0].invariants.invariants()
        assert len(noelle_found) > len(llvm_found)

    def test_nested_loops_hoist_outward(self):
        source = """
int factor = 2;
int m[100];
int main() {
  int i; int j; int s = 0;
  for (i = 0; i < 10; i = i + 1) {
    for (j = 0; j < 10; j = j + 1) {
      int k = factor * 7;
      s = s + k + i;
    }
  }
  return s;
}
"""
        baseline = run(compile_source(source))
        module = compile_source(source)
        hoisted = LICM(Noelle(module)).run()
        assert hoisted >= 1
        assert run(module).return_value == baseline.return_value

    # ``g[1]`` is invariant but runs on every third iteration only, so
    # it stays; ``x * 7 + 3`` reads it and must stay with it.
    # ``factor * 3`` is a safe hoist in the same loop.
    GUARDED = """
int factor = 5;
int g[4];
int a[100];
int main() {
  int i; int s = 0;
  g[1] = 4;
  for (i = 0; i < 100; i = i + 1) {
    int k = factor * 3;
    if (i % 3 == 0) { int x = g[1]; int y = x * 7 + 3; a[i] = y; }
    s = s + a[i] + k;
  }
  print_int(s);
  return a[99];
}
"""

    def test_users_of_a_guarded_load_stay_with_it(self):
        baseline = run(compile_source(self.GUARDED))
        module = compile_source(self.GUARDED)
        hoisted = LICM(Noelle(module)).run()
        ir.verify_module(module)
        assert hoisted >= 1
        result = run(module)
        assert (result.output, result.return_value) == (
            baseline.output, baseline.return_value,
        )

    def test_guarded_load_keeps_the_pass_committed(self):
        from repro.robust.passmanager import PassManager

        module = compile_source(self.GUARDED)
        baseline = run(compile_source(self.GUARDED))
        manager = PassManager(Noelle(module), fault_plan=None)
        result = manager.run_registered("licm")
        assert result.ok and not result.rolled_back, result.error
        assert result.value >= 1  # factor * 3
        assert run(module).output == baseline.output


class TestDEAD:
    SOURCE = """
int used_fn(int x) { return x + 1; }
int dead_leaf(int x) { return x - 1; }
int dead_caller(int x) { return dead_leaf(x) * 2; }
int main() { return used_fn(1); }
"""

    def test_removes_dead_functions(self):
        module = compile_source(self.SOURCE)
        removed = DeadFunctionEliminator(Noelle(module)).run()
        assert set(removed) == {"dead_leaf", "dead_caller"}
        assert run(module).return_value == 2

    def test_keeps_indirect_targets(self):
        source = """
int sel = 0;
int a() { return 1; }
int b() { return 2; }
int never_called(int x) { return x; }
int main() {
  int (*f)(void);
  if (sel) { f = a; } else { f = b; }
  return f();
}
"""
        module = compile_source(source)
        removed = DeadFunctionEliminator(Noelle(module)).run()
        assert set(removed) == {"never_called"}
        assert run(module).return_value == 2

    def test_size_reduction_measured(self):
        module = compile_source(self.SOURCE)
        before = module.num_instructions()
        DeadFunctionEliminator(Noelle(module)).run()
        assert module.num_instructions() < before


class TestCARAT:
    def test_guards_catch_overflow(self):
        source = """
int main() {
  int *p = (int *)malloc(8);
  int i;
  for (i = 0; i < 9; i = i + 1) { p[i] = i; }
  return p[0];
}
"""
        module = compile_source(source)
        stats = CARAT(Noelle(module)).run()
        assert stats.guards_inserted >= 1
        result = Interpreter(module).run()
        assert result.trapped is not None
        assert "CARAT" in result.trapped

    def test_safe_program_unaffected(self):
        source = """
int a[50];
int main() {
  int i; int s = 0;
  for (i = 0; i < 50; i = i + 1) { a[i] = i; s = s + a[i]; }
  return s;
}
"""
        baseline = run(compile_source(source))
        module = compile_source(source)
        stats = CARAT(Noelle(module)).run()
        result = run(module)
        assert result.return_value == baseline.return_value

    def test_constant_accesses_proven_safe(self):
        source = """
int a[10];
int main() { a[3] = 7; return a[3]; }
"""
        module = compile_source(source)
        stats = CARAT(Noelle(module)).run()
        assert stats.proven_safe == 2
        assert stats.guards_inserted == 0

    def test_range_guard_merging(self):
        source = """
int a[64];
int main() {
  int i;
  for (i = 0; i < 64; i = i + 1) { a[i] = i; }
  return a[9];
}
"""
        module = compile_source(source)
        stats = CARAT(Noelle(module)).run()
        assert stats.merged >= 1
        result = run(module)
        # One range guard executed, not 64 point guards.
        assert result.guard_count <= stats.guards_inserted
        assert result.return_value == 9

    def test_invariance_queries_share_one_ldg_per_loop(self):
        # Twelve in-loop addresses that are neither affine (no range
        # guard) nor out-of-loop: each one asks INV whether it could be
        # hoisted.  The facade serves them all from the loop's one LDG.
        accesses = "\n".join(
            f"    a[idx[i + {k}]] = b[idx[i + {k}]] + {k};" for k in range(6)
        )
        source = f"""
int a[64];
int b[64];
int idx[64];
int main() {{
  int i;
  for (i = 0; i < 64; i = i + 1) {{ idx[i] = (i * 7) % 64; }}
  for (i = 0; i < 58; i = i + 1) {{
{accesses}
  }}
  return a[7];
}}
"""
        baseline = run(compile_source(source))
        module = compile_source(source)
        builds = STATS.get("loop.ldg_builds")
        hits = STATS.get("loop.cache_hits")
        stats = CARAT(Noelle(module)).run()
        assert stats.guards_inserted - stats.merged >= 12
        assert STATS.get("loop.ldg_builds") - builds == 1
        assert STATS.get("loop.cache_hits") - hits >= 11
        assert run(module).return_value == baseline.return_value


class TestCOOS:
    SOURCE = """
int work(int x) {
  int i; int s = x;
  for (i = 0; i < 50; i = i + 1) { s = (s * 3 + 1) % 1000; }
  return s;
}
int main() {
  int i; int total = 0;
  for (i = 0; i < 40; i = i + 1) { total = total + work(i); }
  return total;
}
"""

    def test_hooks_bound_gaps(self):
        baseline = run(compile_source(self.SOURCE))
        module = compile_source(self.SOURCE)
        inserted = CompilerTiming(Noelle(module), budget_cycles=500).run()
        assert inserted >= 1
        result = run(module)
        assert result.return_value == baseline.return_value
        accuracy = timing_accuracy(result.callback_cycles, result.cycles)
        assert accuracy["hooks"] > 0
        # Hooked max gap must be far below the unhooked one (whole run).
        assert accuracy["max_gap"] < baseline.cycles / 4

    def test_tighter_budget_more_hooks(self):
        loose_module = compile_source(self.SOURCE)
        CompilerTiming(Noelle(loose_module), budget_cycles=5000).run()
        loose = run(loose_module).callback_count
        tight_module = compile_source(self.SOURCE)
        CompilerTiming(Noelle(tight_module), budget_cycles=200).run()
        tight = run(tight_module).callback_count
        assert tight >= loose


class TestPRVJ:
    def test_low_demand_sites_get_fast_generator(self):
        source = """
int main() {
  int i; int s = 0;
  srand(5);
  for (i = 0; i < 300; i = i + 1) {
    s = s + rand() % 10;
  }
  return s;
}
"""
        module = compile_source(source)
        noelle = Noelle(module)
        noelle.run_profiler()
        baseline_cycles = Interpreter(compile_source(source)).run().cycles
        selected = PRVJeeves(noelle).run()
        assert selected, "no generator selected"
        assert "rand_lcg" in selected  # modulo-only use: fast generator
        result = Interpreter(module).run()
        assert result.cycles < baseline_cycles

    def test_high_demand_sites_keep_quality(self):
        source = """
double main() {
  int i; double acc = 0.0;
  srand(5);
  for (i = 0; i < 200; i = i + 1) {
    double x = (double)(rand() % 1000) * 0.001;
    acc = acc + sqrt(x + 0.1);
  }
  return acc;
}
"""
        module = compile_source(source)
        noelle = Noelle(module)
        noelle.run_profiler()
        selected = PRVJeeves(noelle).run()
        # Feeding sqrt demands the top-quality generator.
        assert selected.get("rand_mt", 0) >= 1 or not selected

    def test_cold_sites_untouched(self):
        source = """
int cold_path(int x) { if (x > 1000000) { return rand(); } return 0; }
int main() {
  int i; int s = 0;
  srand(1);
  for (i = 0; i < 200; i = i + 1) { s = s + rand() % 5; }
  return s + cold_path(3);
}
"""
        module = compile_source(source)
        noelle = Noelle(module)
        noelle.run_profiler()
        PRVJeeves(noelle, hotness_threshold=0.01).run()
        cold_fn = module.get_function("cold_path")
        cold_calls = [
            i.called_function().name
            for i in cold_fn.instructions()
            if isinstance(i, ir.Call)
        ]
        assert cold_calls == ["rand"]  # never executed: left alone


class TestTIME:
    SOURCE = """
int data[200];
int threshold = 90;
int main() {
  int i; int hits = 0;
  for (i = 0; i < 200; i = i + 1) { data[i] = (i * 37) % 100; }
  for (i = 0; i < 200; i = i + 1) {
    int deep = ((data[i] * 3 + 1) * 5 + 2) % 128;
    if (threshold < deep) { hits = hits + 1; }
  }
  return hits;
}
"""

    def test_swaps_and_preserves(self):
        baseline_interp = Interpreter(compile_source(self.SOURCE))
        baseline = baseline_interp.run()
        module = compile_source(self.SOURCE)
        stats = TimeSqueezer(Noelle(module)).run()
        assert stats.compares_swapped >= 1
        interp = Interpreter(module)
        result = interp.run()
        assert result.trapped is None
        assert result.return_value == baseline.return_value

    def test_clock_changes_reduce_weighted_time(self):
        source = """
int a[400];
int b[400];
int main() {
  int i;
  for (i = 0; i < 400; i = i + 1) { a[i] = i; }
  for (i = 0; i < 400; i = i + 1) { b[i] = a[i] + i - 3; }
  return b[100];
}
"""
        slow = Interpreter(compile_source(source))
        slow_result = slow.run()
        module = compile_source(source)
        stats = TimeSqueezer(Noelle(module)).run()
        fast = Interpreter(module)
        fast_result = fast.run()
        assert fast_result.return_value == slow_result.return_value
        if stats.clock_changes_inserted:
            assert fast.weighted_cycles < slow.weighted_cycles


class TestPerspective:
    #: Three call sites pass three different pairs of the three arrays,
    #: so alias analysis answers *may* for src/dst; the body is long
    #: enough that validating two accesses is cheaper than running it.
    MAY_ALIAS_LOOP = """
int a[400];
int b[400];
int c[400];
void kernel(int *src, int *dst, int n) {
  int i;
  for (i = 0; i < n; i = i + 1) {
    int v = src[i];
    int w = (v * v + 3 * v + 7) % 211;
    dst[i] = (w * 5 + v) % 97 + dst[i] % 3 + (w + v) % 13;
  }
}
int main() {
  int i;
  for (i = 0; i < 400; i = i + 1) { a[i] = i % 29; b[i] = i % 7; c[i] = i % 5; }
  kernel(a, b, 400);
  kernel(b, c, 400);
  kernel(c, a, 400);
  print_int(a[111] + b[222] + c[333]);
  return a[111];
}
"""

    def test_speculative_doall(self):
        baseline = run(compile_source(self.MAY_ALIAS_LOOP))
        module = compile_source(self.MAY_ALIAS_LOOP)
        noelle = Noelle(module)
        noelle.run_profiler()
        count = Perspective(noelle).run()
        assert count >= 1, "Perspective found no speculative plan"
        result = ParallelMachine(module, num_cores=8).run()
        assert result.trapped is None
        assert outputs_match(result.output, baseline.output)
        assert result.return_value == baseline.return_value
        assert result.guard_count > 0  # the validation ran
        assert result.cycles < baseline.cycles

    def test_must_dependences_not_speculated(self):
        source = """
int cell = 0;
int main() {
  int i;
  for (i = 0; i < 50; i = i + 1) { cell = (cell * 2 + i) % 97; }
  return cell;
}
"""
        module = compile_source(source)
        noelle = Noelle(module)
        noelle.run_profiler()
        pers = Perspective(noelle)
        loops = [l for l in noelle.loops() if l.structure.depth() == 1]
        assert all(not pers.can_parallelize(l) for l in loops)
