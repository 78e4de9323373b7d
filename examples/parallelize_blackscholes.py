#!/usr/bin/env python
"""The Figure 1 pipeline end to end: parallelize blackscholes with HELIX,
DOALL, and DSWP, and sweep the simulated core count.

Run:  python examples/parallelize_blackscholes.py
"""

from repro.interp import Interpreter
from repro.tools.pipeline import TECHNIQUES, execute, load, parallelize
from repro.workloads import get


def main() -> None:
    workload = get("blackscholes")

    baseline_module = workload.compile()
    baseline = Interpreter(baseline_module).run()
    print(f"sequential (clang stand-in): {baseline.cycles} cycles, "
          f"output {baseline.output}")

    for name in TECHNIQUES:
        module = workload.compile()
        _, count = parallelize(
            load(module), name, num_cores=12, minimum_hotness=0.02
        )
        print(f"\n{name}: parallelized {count} loop(s)")
        for cores in (1, 2, 4, 8, 12, 24):
            result = execute(module, num_cores=cores)
            assert result.trapped is None, result.trapped
            speedup = baseline.cycles / result.cycles
            print(f"  {cores:2d} cores: {speedup:5.2f}x "
                  f"({result.cycles} cycles)")


if __name__ == "__main__":
    main()
