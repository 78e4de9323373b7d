"""Interpreter engine scaling: compiled closure-threading vs the walker.

Measures the costs the compiled execution engine changes and records
them in ``BENCH_interp.json`` at the repository root:

* **reference** — every registered workload under the tree-walking
  reference interpreter (the seed's execution path);
* **cold** — the same workloads on freshly compiled modules under the
  compiled engine, so each run pays function compilation up front;
* **warm** — the same modules again with the per-module code cache hot,
  the steady state every profiler/transform/re-run loop sits in;
* **pipeline** — the full ``helix_pipeline`` (profile twice, transform,
  verify) end to end under each engine — the compile-flow wall clock
  the engine is meant to shrink.

Every run's observables (output, return value, cycles, steps, trap) are
checked for equality between engines while timing — a benchmark that
got faster by diverging would be meaningless.

Runs standalone (``PYTHONPATH=src python benchmarks/bench_interp.py``;
add ``--smoke`` to skip the performance assertions, e.g. on loaded CI
runners) or under pytest with the rest of the benchmark suite.
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

from repro.interp import Interpreter
from repro.tools.pipeline import helix_pipeline
from repro.workloads import all_workloads, get

RESULT_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_interp.json"
)
PIPELINE_WORKLOAD = "blackscholes"


def _observables(result, interp):
    return (
        result.output,
        result.return_value,
        result.cycles,
        result.steps,
        result.trapped,
        interp.weighted_cycles,
    )


def _run_all(modules, engine):
    """Run every (workload, module) pair; returns (seconds, observables)."""
    observed = []
    start = time.perf_counter()
    for workload, module in modules:
        interp = Interpreter(
            module, step_limit=workload.step_limit, engine=engine
        )
        result = interp.run()
        observed.append(_observables(result, interp))
    return time.perf_counter() - start, observed


def _time_pipeline(engine):
    source = get(PIPELINE_WORKLOAD).source
    previous = os.environ.get("NOELLE_ENGINE")
    os.environ["NOELLE_ENGINE"] = engine
    try:
        start = time.perf_counter()
        helix_pipeline([source], num_cores=8, fault_plan=None)
        return time.perf_counter() - start
    finally:
        if previous is None:
            del os.environ["NOELLE_ENGINE"]
        else:
            os.environ["NOELLE_ENGINE"] = previous


def run_bench() -> dict:
    workloads = all_workloads()
    modules = [(w, w.compile()) for w in workloads]
    reference_s, reference_obs = _run_all(modules, "reference")
    # Fresh modules: the compiled engine pays every compilation.
    modules = [(w, w.compile()) for w in workloads]
    cold_s, cold_obs = _run_all(modules, "compiled")
    # Same modules: the per-module code cache is hot.
    warm_s, warm_obs = _run_all(modules, "compiled")
    assert cold_obs == reference_obs, "engines diverged (cold run)"
    assert warm_obs == reference_obs, "engines diverged (warm run)"
    return {
        "num_workloads": len(workloads),
        "reference_s": reference_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "cold_speedup": reference_s / cold_s,
        "warm_speedup": reference_s / warm_s,
        "cold_overhead": cold_s / warm_s,
        "pipeline_reference_s": _time_pipeline("reference"),
        "pipeline_compiled_s": _time_pipeline("compiled"),
    }


def report(results: dict) -> None:
    rows = [
        (f"{results['num_workloads']} workloads, reference walker",
         f"{results['reference_s']:.3f}s"),
        ("same, compiled engine (cold)", f"{results['cold_s']:.3f}s"),
        ("same, compiled engine (warm)", f"{results['warm_s']:.3f}s"),
        ("cold speedup", f"{results['cold_speedup']:.1f}x"),
        ("warm re-run speedup", f"{results['warm_speedup']:.1f}x"),
        ("cold-compile overhead", f"{results['cold_overhead']:.2f}x warm"),
        ("helix_pipeline, reference",
         f"{results['pipeline_reference_s']:.3f}s"),
        ("helix_pipeline, compiled",
         f"{results['pipeline_compiled_s']:.3f}s"),
    ]
    width = max(len(label) for label, _ in rows)
    print("\n=== Execution engine ===")
    for label, value in rows:
        print(f"{label.ljust(width)}  {value}")


def write_results(results: dict, path=RESULT_PATH) -> None:
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")


def assert_claims(results: dict) -> None:
    # The headline claim: warm re-runs are at least 3x the walker
    # (measured ~10x; the margin absorbs loaded CI runners).
    assert results["warm_speedup"] >= 3.0, results
    # Even paying every compilation, the engine must not lose to the
    # walker over a whole suite run.
    assert results["cold_speedup"] >= 1.0, results


def test_interp_engine(benchmark, tmp_path):
    from conftest import run_once

    results = run_once(benchmark, run_bench)
    report(results)
    # The tracked root file is rewritten only by a standalone run.
    write_results(results, tmp_path / "BENCH_interp.json")
    assert_claims(results)


if __name__ == "__main__":
    outcome = run_bench()
    report(outcome)
    write_results(outcome)
    if "--smoke" not in sys.argv[1:]:
        assert_claims(outcome)
    print(f"\nwrote {os.path.normpath(RESULT_PATH)}")
