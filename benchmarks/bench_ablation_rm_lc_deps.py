"""Ablation: the ``noelle-rm-lc-dependences`` enabling transformation.

The Figure 1 pipeline runs rm-lc-dependences before the parallelizer.
This ablation measures what it buys: without the memory-accumulator
promotion, loops that accumulate into globals carry a memory dependence
and resist DOALL entirely.
"""

from conftest import print_table

from repro.core import Noelle
from repro.core.profiler import Profiler
from repro.frontend import compile_source
from repro.interp import Interpreter
from repro.runtime import ParallelMachine
from repro.tools import remove_loop_carried_dependences
from repro.xforms import DOALL

GLOBAL_ACCUMULATOR = """
int total = 0;
int data[2500];
void fill(int n) {
  int i;
  for (i = 0; i < n; i = i + 1) { data[i] = (i * 29 + 5) % 83; }
}
int main() {
  int i;
  fill(2500);
  for (i = 0; i < 2500; i = i + 1) {
    total = total + (data[i] * data[i] + 7) % 101;
  }
  print_int(total);
  return total;
}
"""


def _speedup(with_rm_lc: bool) -> tuple[float, int]:
    baseline = Interpreter(compile_source(GLOBAL_ACCUMULATOR)).run()
    module = compile_source(GLOBAL_ACCUMULATOR)
    noelle = Noelle(module)
    noelle.attach_profile(Profiler(module).profile())
    if with_rm_lc:
        remove_loop_carried_dependences(noelle)
    count = DOALL(noelle, 12).run()
    result = ParallelMachine(module, num_cores=12).run()
    assert result.trapped is None
    assert result.output == baseline.output
    return baseline.cycles / result.cycles, count


def test_ablation_rm_lc_dependences():
    results = {
        "without rm-lc-dependences": _speedup(False),
        "with rm-lc-dependences": _speedup(True),
    }
    print_table(
        "Ablation — DOALL on a global-accumulator loop",
        ["configuration", "speedup", "loops parallelized"],
        [(n, f"{s:.2f}x", c) for n, (s, c) in results.items()],
    )
    without_speedup, without_count = results["without rm-lc-dependences"]
    with_speedup, with_count = results["with rm-lc-dependences"]
    # Without the enabling transformation, the hot loop stays serial.
    assert with_count > without_count or with_speedup > without_speedup * 1.5
    assert with_speedup > 2.0
