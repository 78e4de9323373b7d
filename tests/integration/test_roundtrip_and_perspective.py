"""Serializer round-trips on every workload, and Perspective's speedup."""

import pytest

from repro import ir
from repro.core import Noelle
from repro.frontend import compile_source
from repro.interp import Interpreter
from repro.runtime import ParallelMachine
from repro.workloads import all_workloads
from tests.conftest import outputs_match


@pytest.mark.parametrize("workload", all_workloads(), ids=lambda w: w.name)
def test_print_parse_roundtrip_preserves_execution(workload):
    """Every workload's module serializes, reparses, verifies, and runs
    to the same output — the whole-IR pipeline's persistence guarantee."""
    module = workload.compile()
    reference = Interpreter(module, step_limit=workload.step_limit).run()
    text = ir.print_module(module)
    reparsed = ir.parse_module(text, workload.name)
    ir.verify_module(reparsed)
    result = Interpreter(reparsed, step_limit=workload.step_limit).run()
    assert result.output == reference.output
    assert result.return_value == reference.return_value
    # And the round trip is a fixpoint.
    assert ir.print_module(reparsed) == text


class TestPerspectiveSpeedup:
    SOURCE = """
int input_data[2500];
int output_data[2500];
void kernel(int *src, int *dst, int n) {
  int i;
  for (i = 0; i < n; i = i + 1) {
    int v = src[i];
    dst[i] = (v * v + 3 * v + 7) % 211 + dst[i] % 2;
  }
}
int main() {
  int i;
  for (i = 0; i < 2500; i = i + 1) { input_data[i] = (i * 41 + 3) % 199; }
  kernel(input_data, output_data, 2500);
  print_int(output_data[123] + output_data[2400]);
  return 0;
}
"""

    def _weak_noelle(self, module):
        # Weak AA cannot separate the two pointer arguments, so the loop
        # has *apparent* (may) carried dependences: Perspective's habitat.
        from repro.analysis.aa import BasicAliasAnalysis

        noelle = Noelle(module)
        noelle._aa = BasicAliasAnalysis()
        return noelle

    def test_doall_rejects_but_perspective_speculates(self):
        from repro.xforms import DOALL, Perspective

        baseline = Interpreter(compile_source(self.SOURCE)).run()

        rejected = compile_source(self.SOURCE)
        weak = self._weak_noelle(rejected)
        doall = DOALL(weak)
        kernel_loops = [
            l for l in weak.loops()
            if l.structure.function.name == "kernel"
        ]
        assert kernel_loops and not doall.can_parallelize(kernel_loops[0])

        module = compile_source(self.SOURCE)
        noelle = self._weak_noelle(module)
        noelle.run_profiler()
        perspective = Perspective(noelle, num_cores=12)
        count = perspective.run()
        assert count >= 1, "Perspective found no speculative plan"
        machine = ParallelMachine(module, num_cores=12)
        result = machine.run()
        assert result.trapped is None
        assert outputs_match(result.output, baseline.output)
        assert result.guard_count > 0  # the validation actually ran
        speedup = baseline.cycles / result.cycles
        # Speculation pays validation per access but still wins clearly —
        # the paper's "minimal speculation cost" story.
        assert speedup > 2.0, f"only {speedup:.2f}x"
