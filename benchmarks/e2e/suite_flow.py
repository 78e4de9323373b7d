"""Workload ``suite_flow``: the paper's own traffic.

The 21 registry programs (Figure 5's suites), each taken fresh through
the Figure-1 flow — source -> IR -> profile -> rm-lc-dependences ->
one parallelizer -> verify -> run on the simulated 8-core machine.
Run time is concentrated in execution (profiling walker and the
machine run), so this workload moves with ``interp``/``runtime`` and
hardly at all with ``analysis``/``core``/``xforms``.

The seed only shuffles the order the programs are visited in: the work
is the same for every seed, so ``par_speedup_geomean`` and every count
repeat exactly and the timings of two seeds are comparable.
"""

from __future__ import annotations

import random
import time

from common import (
    NUM_CORES, aa_counts, compile_program, load_expected, matches_expected,
    run_pass, traced_call,
)
from measure import StatsDelta, geomean, median_span_seconds, ratio

from repro.core.noelle import Noelle
from repro.core.profiler import Profiler, embed_profile
from repro.interp import Interpreter
from repro.ir import verify_module
from repro.perf import STATS
from repro.robust.passmanager import PassManager
from repro.runtime.machine import ParallelMachine
from repro.workloads import all_workloads


TECHNIQUES = ("doall", "helix", "dswp")
#: Program ``index`` of the registry gets TECHNIQUES[(index + ROTATION) % 3].
#: Rotation 0 would put DSWP on ``mcf``, whose DSWP output fails
#: verification and is rolled back — the flow would then time an
#: untransformed program.
ROTATION = 1
#: Programs of the warm-up pass and of the engine/walker speed sample
#: (one per technique).
SAMPLE = ("crc32", "dijkstra", "sha")


class State:
    def __init__(self, seed: int):
        workloads = all_workloads()
        self.technique = {
            w.name: TECHNIQUES[(index + ROTATION) % 3]
            for index, w in enumerate(workloads)
        }
        self.programs = list(workloads)
        random.Random(seed).shuffle(self.programs)
        self.expected = {w.name: load_expected(w.name) for w in workloads}


def prepare(seed: int, scratch: str) -> State:
    return State(seed)


def _flow(state: State, workload, rec) -> dict:
    """One program through the whole flow; returns its stage wall
    seconds, whether the output was right, and the run's cycle counts."""
    name = workload.name
    technique = state.technique[name]
    with rec.span("flow", item=name, technique=technique):
        t0 = time.perf_counter()
        module = compile_program(workload.source, name, rec)
        t1 = time.perf_counter()
        profile = traced_call(
            rec, "core.profile", lambda: Profiler(module).profile()
        )
        t2 = time.perf_counter()
        embed_profile(module, profile)
        noelle = Noelle(module, profile=profile)
        manager = PassManager(noelle, fault_plan=None, checks=False)
        run_pass(manager, rec, "rm-lc-dependences")
        if technique == "dswp":
            result = run_pass(manager, rec, "dswp", num_stages=4)
        else:
            result = run_pass(manager, rec, technique, num_cores=NUM_CORES)
        with rec.span("ir.verify"):
            verify_module(module)
        t3 = time.perf_counter()
        machine = ParallelMachine(
            module, num_cores=NUM_CORES, step_limit=workload.step_limit * 4
        )
        run = traced_call(rec, "runtime.machine_run", machine.run)
        t4 = time.perf_counter()
    expected = state.expected[name]
    correct = (
        run.trapped is None
        and result.ok
        and matches_expected(run.output, run.return_value, expected)
    )
    return {
        "wall": ((t1 - t0) + (t3 - t2), t2 - t1, t4 - t3),
        "correct": correct,
        "technique": technique,
        "parallelized": result.value if result.ok else 0,
        "insts_out": module.num_instructions(),
        "seq_cycles": expected["cycles"],
        "par_cycles": run.cycles,
        "dispatches": len(machine.executions),
    }


def _pass(state: State, programs, rec) -> dict:
    delta = StatsDelta(STATS)
    clock = rec.clock
    flows, ops = {}, {}
    before = clock.mark()
    for workload in programs:
        flow = flows[workload.name] = _flow(state, workload, rec)
        after = clock.mark()
        ops[workload.name] = tuple(
            clock.scale(wall, before, after) for wall in flow["wall"]
        )
        before = after
    return {
        "ops": ops,
        "wall_s": sum(sum(stages) for stages in ops.values()),
        "attempted": len(flows),
        "failed": sum(1 for flow in flows.values() if not flow["correct"]),
        "flows": flows,
        "delta": delta,
    }


def warm_up(state: State, rec) -> None:
    sample = [w for w in state.programs if w.name in SAMPLE]
    outcome = _pass(state, sample, rec)
    if outcome["failed"]:
        raise RuntimeError("suite_flow warm-up produced a wrong output")


def repeat(state: State, rec, index: int) -> dict:
    return _pass(state, state.programs, rec)


def named_metrics(state: State, repeats: list[dict], stages) -> dict:
    """The issue's names for what this workload measures."""
    flows = repeats[-1]["flows"]
    return {
        "compile_s": (stages[0], "s"),
        "profile_s": (stages[1], "s"),
        "run_s": (stages[2], "s"),
        "par_speedup_geomean": (_speedup_geomean(flows), "x"),
    }


def _speedup_geomean(flows: dict) -> float:
    # sorted: the product must not depend on the seed's visiting order
    return geomean(
        flows[name]["seq_cycles"] / flows[name]["par_cycles"]
        for name in sorted(flows)
    )


def _speed_sample(state: State, rec) -> dict:
    """Steps per second of both executors on three untransformed
    programs (second run of each module, so the engine is compiled)."""
    seconds = {"compiled": 0.0, "reference": 0.0}
    steps = 0
    for workload in state.programs:
        if workload.name not in SAMPLE:
            continue
        module = compile_program(workload.source, workload.name, rec)
        steps += state.expected[workload.name]["steps"]
        for engine in seconds:
            def run(engine=engine):
                return Interpreter(
                    module, step_limit=workload.step_limit, engine=engine
                ).run()
            run()
            start = time.perf_counter()
            with rec.span("interp.sample_run", item=workload.name,
                          engine=engine):
                run()
            seconds[engine] += time.perf_counter() - start
    return {
        "interp.engine_run_s": seconds["compiled"],
        "interp.engine_steps_per_s": ratio(steps, seconds["compiled"]),
        "interp.walker_steps_per_s": ratio(steps, seconds["reference"]),
    }


def layer_metrics(state: State, rec, repeats: list[dict]) -> dict:
    """Per-layer numbers of the traced run: seconds are the median over
    the repeats, counts come from the last repeat (they repeat exactly)."""
    last = repeats[-1]
    flows, delta = last["flows"], last["delta"]

    def seconds(name):
        return median_span_seconds(rec.spans, name, len(repeats))

    aa_queries, aa_memo_hit_ratio = aa_counts(delta)

    with rec.span("probe"):
        metrics = _speed_sample(state, rec)
    profiled_steps = sum(
        state.expected[name]["steps"] for name in flows
    )
    by_technique = {t: 0 for t in TECHNIQUES}
    for flow in flows.values():
        by_technique[flow["technique"]] += flow["parallelized"]
    metrics.update({
        "frontend.parse_s": seconds("frontend.parse"),
        "frontend.codegen_s": seconds("frontend.codegen"),
        "opt.mem2reg_s": seconds("opt.mem2reg"),
        "opt.simplify_s": seconds("opt.simplify"),
        "ir.verify_s": seconds("ir.verify"),
        "analysis.pointsto_s": seconds("analysis.pointsto"),
        "analysis.pointsto_solves": delta.counter("pointsto.solves"),
        "analysis.aa_queries": aa_queries,
        "analysis.aa_memo_hit_ratio": aa_memo_hit_ratio,
        "core.pdg_materialize_s": seconds("core.pdg_materialize"),
        "core.pdg_shard_builds": delta.counter("pdg.shard_builds"),
        "core.pdg_pairs_pruned": delta.counter("pdg.pairs_pruned"),
        "core.loops_s": seconds("core.loops"),
        "core.profile_s": seconds("core.profile"),
        "interp.observed_steps_per_s": ratio(
            profiled_steps, seconds("core.profile")
        ),
        "xforms.rm_lc_deps_s": seconds("xforms.rm_lc_deps"),
        "xforms.doall_s": seconds("xforms.doall"),
        "xforms.helix_s": seconds("xforms.helix"),
        "xforms.dswp_s": seconds("xforms.dswp"),
        "xforms.loops_parallelized.doall": by_technique["doall"],
        "xforms.loops_parallelized.helix": by_technique["helix"],
        "xforms.loops_parallelized.dswp": by_technique["dswp"],
        "xforms.insts_out": sum(f["insts_out"] for f in flows.values()),
        "robust.pass_s": seconds("robust.pass"),
        "robust.snapshot_s": delta.seconds("passmanager.snapshot"),
        "robust.overhead_ratio": ratio(
            seconds("robust.pass"),
            sum(seconds("xforms." + t)
                for t in TECHNIQUES + ("rm_lc_deps",)),
        ),
        "robust.rollbacks": delta.counter("passmanager.rollbacks"),
        "interp.engine_compile_s": seconds("interp.engine_compile"),
        "interp.engine_compiles": delta.counter("engine.compiles"),
        "interp.engine_cache_hits": delta.counter("engine.cache_hits"),
        "interp.blocks_compiled": delta.counter("engine.blocks_compiled"),
        "interp.blocks_reference": delta.counter("engine.blocks_reference"),
        "runtime.machine_run_s": seconds("runtime.machine_run"),
        "runtime.seq_cycles": sum(f["seq_cycles"] for f in flows.values()),
        "runtime.par_cycles": sum(f["par_cycles"] for f in flows.values()),
        "runtime.dispatches": sum(f["dispatches"] for f in flows.values()),
        "runtime.par_speedup_geomean": _speedup_geomean(flows),
    })
    return metrics

