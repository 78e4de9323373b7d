"""Figure 5 / Section 4.4 / Section 4.5 reproductions."""

from __future__ import annotations

from ..baselines.conservative_parallelizer import ConservativeParallelizer
from ..core.noelle import Noelle
from ..interp.interp import Interpreter
from ..tools.pipeline import execute, outputs_equivalent, parallelize
from ..workloads import Workload, all_workloads, suite
from ..xforms.dead import DeadFunctionEliminator


def _sequential_baseline(workload: Workload):
    module = workload.compile()
    result = Interpreter(module, step_limit=workload.step_limit).run()
    assert result.trapped is None, f"{workload.name}: {result.trapped}"
    return result


def _parallelize_and_run(workload: Workload, technique: str, num_cores: int,
                         baseline):
    """Apply one technique and run on the simulated machine.

    Returns (speedup, loops parallelized, output-match) against the
    sequential ``baseline``.
    """
    module = workload.compile()
    if technique in ("gcc", "icc"):
        count = ConservativeParallelizer(module, num_cores).run()
    else:
        _, count = parallelize(
            Noelle(module), technique, num_cores=num_cores,
            minimum_hotness=0.02,
        )
    result = execute(module, num_cores=num_cores,
                     step_limit=workload.step_limit * 4)
    assert result.trapped is None, f"{workload.name}/{technique}: {result.trapped}"
    matches = outputs_equivalent(
        result.output + [result.return_value],
        baseline.output + [baseline.return_value],
    )
    speedup = baseline.cycles / result.cycles if result.cycles else 0.0
    return speedup, count, matches


FIG5_TECHNIQUES = ("gcc", "icc", "doall", "helix", "dswp")


def _fig5_row(
    task: tuple[Workload, int, tuple[str, ...]]
) -> dict:
    """One benchmark's row (module-level so process pools can pickle it)."""
    workload, num_cores, techniques = task
    row: dict = {"benchmark": workload.name, "suite": workload.suite,
                 "parallel_friendly": workload.parallel_friendly}
    baseline = _sequential_baseline(workload)
    for technique in techniques:
        speedup, count, matches = _parallelize_and_run(
            workload, technique, num_cores, baseline
        )
        row[technique] = speedup
        row[f"{technique}_loops"] = count
        row[f"{technique}_correct"] = matches
    return row


def fig5_speedups(
    workloads: list[Workload] | None = None,
    num_cores: int = 12,
    techniques: tuple[str, ...] = FIG5_TECHNIQUES,
    jobs: int | None = None,
) -> list[dict]:
    """Figure 5: speedups over clang (the plain sequential binary) for
    gcc/icc-style auto-parallelization vs the NOELLE-based tools, on the
    PARSEC and MiBench suites.

    Each benchmark is independent (fresh modules, a deterministic
    machine model), so ``jobs=N`` fans the rows out over a supervised
    worker pool (:func:`repro.serve.pool.supervised_map`): order is
    preserved, making the result identical to the sequential run — and
    a worker that dies abruptly costs only its own row, which comes
    back with an ``"error"`` key carrying the structured record while
    every other row's numbers still return.
    """
    if workloads is None:
        workloads = suite("parsec") + suite("mibench")
    tasks = [(workload, num_cores, techniques) for workload in workloads]
    if jobs is not None and jobs > 1 and len(tasks) > 1:
        from ..serve.pool import supervised_map

        rows = []
        for task, outcome in zip(tasks, supervised_map(_fig5_row, tasks, jobs)):
            if outcome.ok:
                rows.append(outcome.value)
            else:
                workload = task[0]
                rows.append({
                    "benchmark": workload.name,
                    "suite": workload.suite,
                    "parallel_friendly": workload.parallel_friendly,
                    "error": outcome.error,
                })
        return rows
    return [_fig5_row(task) for task in tasks]


def spec_speedups(num_cores: int = 12) -> list[dict]:
    """Section 4.4: modest (1–5%) speedups on the SPEC-shaped suite."""
    return fig5_speedups(suite("spec"), num_cores, ("doall", "helix"))


def sec45_binary_size() -> list[dict]:
    """Section 4.5: DEAD shrinks binaries ~6.3% on average beyond -Oz.

    Binary size is proxied by the whole-module IR instruction count (the
    quantity DEAD is specified to reduce).  Each workload is augmented
    with the library functions a real link would drag in, of which only a
    few are reachable — the situation DEAD exploits.
    """
    library_tail = """
int repro_lib_gcd(int a, int b) {
  while (b != 0) { int t = a % b; a = b; b = t; }
  return a;
}
int repro_lib_lcm(int a, int b) { return a / repro_lib_gcd(a, b) * b; }
int repro_lib_parity(int x) {
  int p = 0;
  while (x != 0) { p = p ^ (x & 1); x = (x >> 1) & 2147483647; }
  return p;
}
double repro_lib_norm(double x, double y) { return sqrt(x * x + y * y); }
double repro_lib_clamp(double v, double lo, double hi) {
  if (v < lo) { return lo; }
  if (v > hi) { return hi; }
  return v;
}
int repro_lib_hash(int x) { return (x * 2654435761) % 2147483647; }
"""
    from ..frontend.codegen import compile_source
    from ..interp.interp import run_module

    rows = []
    for workload in all_workloads():
        source = workload.source + library_tail
        module = compile_source(source, workload.name)
        before_result = run_module(module, step_limit=workload.step_limit)
        before = module.num_instructions()
        removed = DeadFunctionEliminator(Noelle(module)).run()
        after = module.num_instructions()
        after_result = run_module(module, step_limit=workload.step_limit)
        assert after_result.output == before_result.output
        rows.append({
            "benchmark": workload.name,
            "size_before": before,
            "size_after": after,
            "removed_functions": len(removed),
            "reduction_pct": 100.0 * (before - after) / before if before else 0.0,
        })
    return rows
