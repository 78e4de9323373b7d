"""Ablation: HELIX's sensitivity to core-to-core latency (AR).

The architecture abstraction exists because the HELIX schedule's critical
path runs through cross-core signals.  This ablation sweeps the modeled
latency and shows the speedup collapsing as the interconnect slows —
the reason ``noelle-arch`` measures the real machine instead of assuming.
"""

from conftest import print_table

from repro.core import Noelle
from repro.core.architecture import ArchitectureDescription
from repro.core.profiler import Profiler
from repro.frontend import compile_source
from repro.interp import Interpreter
from repro.runtime import ParallelMachine
from repro.xforms import HELIX

HISTOGRAM = """
int hist[64];
int data[2200];
int main() {
  int i;
  int checksum = 0;
  for (i = 0; i < 2200; i = i + 1) { data[i] = (i * 37 + 11) % 64; }
  for (i = 0; i < 2200; i = i + 1) {
    int x = data[i];
    int heavy = ((x * x + i) % 97) + ((x + 3) * (i + 7)) % 31;
    hist[x] = hist[x] + 1;
    checksum = checksum + heavy;
  }
  print_int(checksum);
  return checksum;
}
"""

LATENCIES = (5, 40, 160, 640)


def test_ablation_helix_latency_sensitivity():
    baseline = Interpreter(compile_source(HISTOGRAM)).run()
    module = compile_source(HISTOGRAM)
    noelle = Noelle(module)
    noelle.attach_profile(Profiler(module).profile())
    HELIX(noelle, 8).run()
    speedups = {}
    for latency in LATENCIES:
        arch = ArchitectureDescription(12, default_latency=latency)
        machine = ParallelMachine(module, architecture=arch, num_cores=8)
        result = machine.run()
        assert result.output == baseline.output
        speedups[latency] = baseline.cycles / result.cycles
    print_table(
        "Ablation — HELIX speedup vs core-to-core latency (8 cores)",
        ["latency (cycles)", "speedup"],
        [(latency, f"{s:.2f}x") for latency, s in speedups.items()],
    )
    # Monotone collapse as the signal slows.
    values = [speedups[l] for l in LATENCIES]
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))
    assert values[0] > 1.3  # fast interconnect: real speedup
    assert values[-1] < values[0]  # slow interconnect: the gain erodes
