"""PDG scaling: sharded invalidation vs the full-drop rebuild cycle.

Measures the three costs the sharded PDG changes and records them in
``BENCH_pdg.json`` at the repository root:

* **cold build** — eager whole-module PDG construction (alias analysis
  included), with and without the points-to pair partitioning; the
  unpartitioned build is the seed's exact all-pairs loop, so the ratio
  bounds any cold-start regression;
* **warm cycle** — the transform→invalidate→re-query loop every
  function-at-a-time tool runs: mutate one function, invalidate, rebuild
  the queryable PDG.  Per-function invalidation pays for one shard;
  the full drop re-solves Andersen points-to and rebuilds every shard;
* **pipeline** — a complete parallelizer pipeline (profile →
  rm-lc-dependences → DOALL) on a real workload, end to end.

Runs standalone (``PYTHONPATH=src python benchmarks/bench_pdg_scaling.py``)
or under pytest with the rest of the benchmark suite.
"""

import json
import os
import sys
import time

try:
    import repro  # noqa: F401
except ImportError:  # standalone invocation without PYTHONPATH=src
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    )

from repro import ir
from repro.analysis.pointsto import AndersenAliasAnalysis
from repro.core.noelle import Noelle
from repro.core.pdg import PDG
from repro.core.profiler import Profiler
from repro.frontend import compile_source
from repro.tools.rm_lc_dependences import remove_loop_carried_dependences
from repro.workloads import get
from repro.xforms.doall import DOALL

NUM_FUNCTIONS = 12
WARM_CYCLES = 5
RESULT_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_pdg.json"
)


def scaling_source(num_functions: int = NUM_FUNCTIONS) -> str:
    """A module of ``num_functions`` independent memory-heavy kernels."""
    parts = []
    for k in range(num_functions):
        parts.append(f"""
int data{k}[256];
int aux{k}[256];

int work{k}(int n) {{
  int i;
  int s;
  s = 0;
  for (i = 0; i < n; i = i + 1) {{
    data{k}[i % 256] = i + {k};
    aux{k}[i % 256] = data{k}[i % 256] * 2;
    s = s + aux{k}[i % 256] - data{k}[(i + 7) % 256];
  }}
  return s;
}}
""")
    calls = " + ".join(f"work{k}(64)" for k in range(num_functions))
    parts.append(f"int main() {{ return {calls}; }}")
    return "\n".join(parts)


def insert_dead_add(fn) -> None:
    """The minimal single-function mutation a transform would make."""
    block = fn.blocks[0]
    inst = ir.BinaryOp("add", ir.const_int(1), ir.const_int(2), "dead")
    inst.parent = block
    block.instructions.insert(len(block.instructions) - 1, inst)
    fn.assign_name(inst)


def time_best_of(func, repeats: int = 3) -> float:
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def measure_cold_builds(source: str) -> dict:
    def build(partition: bool):
        module = compile_source(source, "pdg_scaling")
        PDG(
            module, AndersenAliasAnalysis(module), partition=partition
        ).materialize()

    return {
        "cold_build_exact_s": time_best_of(lambda: build(False)),
        "cold_build_partitioned_s": time_best_of(lambda: build(True)),
    }


def measure_cycles(source: str, per_function: bool) -> float:
    """Total seconds for WARM_CYCLES transform→invalidate→re-query loops."""
    module = compile_source(source, "pdg_scaling")
    noelle = Noelle(module)
    noelle.pdg().materialize()
    functions = [fn for fn in module.defined_functions() if fn.name != "main"]
    start = time.perf_counter()
    for index in range(WARM_CYCLES):
        fn = functions[index % len(functions)]
        insert_dead_add(fn)
        noelle.invalidate(fn if per_function else None)
        noelle.pdg().materialize()
    return time.perf_counter() - start


def measure_pipeline() -> float:
    """One full parallelizer pipeline on a real PARSEC-shaped workload."""
    module = get("blackscholes").compile()
    start = time.perf_counter()
    noelle = Noelle(module)
    noelle.attach_profile(Profiler(module).profile())
    remove_loop_carried_dependences(noelle)
    parallelized = DOALL(noelle, 8).run(0.001)
    elapsed = time.perf_counter() - start
    assert parallelized >= 1  # the pipeline must actually transform
    return elapsed


def run_scaling() -> dict:
    source = scaling_source()
    results = measure_cold_builds(source)
    results["warm_cycle_s"] = measure_cycles(source, per_function=True)
    results["full_cycle_s"] = measure_cycles(source, per_function=False)
    results["warm_speedup"] = results["full_cycle_s"] / results["warm_cycle_s"]
    results["cold_overhead"] = (
        results["cold_build_partitioned_s"] / results["cold_build_exact_s"]
    )
    results["pipeline_s"] = measure_pipeline()
    results["num_functions"] = NUM_FUNCTIONS
    results["warm_cycles"] = WARM_CYCLES
    return results


def report(results: dict) -> None:
    rows = [
        ("cold build (exact pairs)", f"{results['cold_build_exact_s']:.4f}s"),
        ("cold build (partitioned)",
         f"{results['cold_build_partitioned_s']:.4f}s"),
        (f"{WARM_CYCLES} warm cycles (invalidate one function)",
         f"{results['warm_cycle_s']:.4f}s"),
        (f"{WARM_CYCLES} full cycles (invalidate everything)",
         f"{results['full_cycle_s']:.4f}s"),
        ("warm-cycle speedup", f"{results['warm_speedup']:.1f}x"),
        ("cold-build overhead", f"{results['cold_overhead']:.2f}x"),
        ("DOALL pipeline (blackscholes)", f"{results['pipeline_s']:.4f}s"),
    ]
    width = max(len(label) for label, _ in rows)
    print("\n=== PDG scaling ===")
    for label, value in rows:
        print(f"{label.ljust(width)}  {value}")


def write_results(results: dict, path=RESULT_PATH) -> None:
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")


def assert_claims(results: dict) -> None:
    # The headline claim: per-function invalidation makes the warm
    # transform cycle at least 5x cheaper than the full drop.
    assert results["warm_speedup"] >= 5.0, results
    # Partitioning must not slow the cold build down meaningfully.
    assert results["cold_overhead"] <= 1.1, results


def test_pdg_scaling(benchmark, tmp_path):
    from conftest import run_once

    results = run_once(benchmark, run_scaling)
    report(results)
    # The tracked root file is rewritten only by a standalone run.
    write_results(results, tmp_path / "BENCH_pdg.json")
    assert_claims(results)


if __name__ == "__main__":
    outcome = run_scaling()
    report(outcome)
    write_results(outcome)
    assert_claims(outcome)
    print(f"\nwrote {os.path.normpath(RESULT_PATH)}")
