"""Workload ``bigmod_analysis``: program size.

One seeded generated MiniC module (see ``bigmod.py``), several times
the whole registry in one translation unit, taken through the
compile-side stack only: frontend, points-to, PDG, every loop's
SCCDAG / invariants / induction variables, call graph, LICM and DOALL
under the pass manager, then the tool loop every function-at-a-time
transform sits in (mutate one function -> ``invalidate(fn)`` ->
re-materialize -> re-derive its loops), then print -> parse -> verify.
Nothing is profiled or executed inside the timed region, so ``interp``
does nothing here: a PDG / points-to / snapshot change shows on this
workload and predicts no change on ``suite_flow``.
"""

from __future__ import annotations

import time

import bigmod
from common import (
    NUM_CORES, aa_counts, compile_program, run_pass, traced_call,
)
from measure import Lap, StatsDelta, median_span_seconds, ratio

from repro import ir
from repro.analysis.deptest import DependenceTester
from repro.core.noelle import Noelle
from repro.frontend import compile_source
from repro.interp import Interpreter
from repro.ir import parse_module, print_module, verify_module
from repro.ir.instructions import Load, Store
from repro.perf import STATS
from repro.robust.passmanager import PassManager
from repro.runtime.machine import ParallelMachine


#: IR instructions of the generated module.  The issue sized it at 30 k
#: (one repeat about 7 s); the run-time cap of the benchmark contract
#: leaves room for one repeat of about 4 s, hence a fifth of that.
TARGET_INSTS = 6000
#: mutate -> invalidate(fn) -> re-query cycles per repeat (the issue's
#: count).  Cycle k always mutates kernel k, so a cycle is the same work
#: in every repeat.
REQUERY_CYCLES = 20
MODULE_NAME = "bigmod"


class State:
    def __init__(self, seed: int):
        self.seed = seed
        self.source = bigmod.generate(seed, TARGET_INSTS)
        # The reference: the tree-walking interpreter on the
        # untransformed module.  It depends on the seed, so it is
        # computed here and not committed.
        module = compile_source(self.source, MODULE_NAME)
        result = Interpreter(module, engine="reference").run()
        if result.trapped is not None:
            raise RuntimeError(f"bigmod reference run trapped: {result.trapped}")
        self.expected_output = result.output
        self.expected_return = result.return_value


def prepare(seed: int, scratch: str) -> State:
    return State(seed)


def _derive_loops(loops) -> dict:
    counts = {"loops": 0, "sccs": 0, "invariants": 0, "ivs": 0}
    for loop in loops:
        counts["loops"] += 1
        counts["sccs"] += len(loop.sccdag.sccs)
        counts["invariants"] += len(loop.invariants.invariants())
        counts["ivs"] += len(loop.induction_variables.ivs)
    return counts


def _insert_dead_add(fn) -> None:
    """The smallest single-function mutation a transform would make."""
    block = fn.blocks[0]
    inst = ir.BinaryOp("add", ir.const_int(1), ir.const_int(2), "dead")
    inst.parent = block
    block.instructions.insert(len(block.instructions) - 1, inst)
    fn.assign_name(inst)


def _pipeline(state: State, rec) -> dict:
    """One pass; stage seconds are calibrated step by step (a pass is
    long enough for the runner to change speed inside it)."""
    counts = {}
    compile_s = 0.0
    lap = Lap(rec.clock)

    def step(func):
        nonlocal compile_s
        value = func()
        compile_s += lap.lap()
        return value

    module = step(lambda: compile_program(state.source, MODULE_NAME, rec))
    counts["insts_in"] = module.num_instructions()
    noelle = Noelle(module)

    def build_pdg():
        traced_call(rec, "analysis.pointsto", noelle.points_to)
        pdg = noelle.pdg()
        traced_call(rec, "core.pdg_materialize", pdg.materialize)
        return pdg

    pdg = step(build_pdg)
    counts["pdg_edges"] = pdg.num_edges()

    def derive():
        found = traced_call(
            rec, "core.loops", lambda: _derive_loops(noelle.loops())
        )
        traced_call(rec, "core.callgraph", noelle.call_graph)
        return found

    counts.update(step(derive))
    manager = PassManager(noelle, fault_plan=None, checks=False)
    licm = step(lambda: run_pass(manager, rec, "licm"))
    doall = step(lambda: run_pass(manager, rec, "doall", num_cores=NUM_CORES))

    kernels = [
        fn for fn in module.defined_functions()
        if fn.name.startswith("kern") and not fn.metadata.get("noelle.task")
    ]
    cycles = []
    rebuilds = StatsDelta(STATS)
    for index in range(REQUERY_CYCLES):
        fn = kernels[index % len(kernels)]
        with rec.span("core.requery", item=fn.name):
            _insert_dead_add(fn)
            noelle.invalidate(fn)
            noelle.pdg().materialize()
            _derive_loops(
                loop for loop in noelle.loops()
                if loop.structure.function is fn
            )
        cycles.append(lap.lap())
    counts["requery_shard_rebuilds"] = rebuilds.counter("pdg.shard_builds")

    with rec.span("ir.print"):
        text = print_module(module)
    with rec.span("ir.parse"):
        parsed = parse_module(text, MODULE_NAME)
    with rec.span("ir.verify"):
        verify_module(parsed)
    roundtrip_s = lap.lap()

    counts["text_bytes"] = len(text)
    counts["insts_out"] = module.num_instructions()
    counts["licm_hoisted"] = licm.value if licm.ok else 0
    counts["doall_loops"] = doall.value if doall.ok else 0
    return {
        "module": module,
        "ok": licm.ok and doall.ok and print_module(parsed) == text,
        "stages": (compile_s, cycles, roundtrip_s),
        "counts": counts,
    }


def _runs_right(state: State, module) -> bool:
    run = ParallelMachine(module, num_cores=NUM_CORES).run()
    return (
        run.trapped is None
        and run.output == state.expected_output
        and run.return_value == state.expected_return
    )


def warm_up(state: State, rec) -> None:
    outcome = _pipeline(state, rec)
    if not outcome["ok"] or not _runs_right(state, outcome["module"]):
        raise RuntimeError("bigmod_analysis warm-up produced a wrong module")


def repeat(state: State, rec, index: int) -> dict:
    delta = StatsDelta(STATS)
    outcome = _pipeline(state, rec)
    compile_s, cycles, roundtrip_s = outcome["stages"]
    ops = {"module": (compile_s, 0.0, roundtrip_s)}
    for cycle, seconds in enumerate(cycles):
        ops[f"cycle{cycle}"] = (0.0, seconds, 0.0)
    return {
        "ops": ops,
        "wall_s": compile_s + sum(cycles) + roundtrip_s,
        "attempted": 1,
        "failed": 0 if outcome["ok"] else 1,
        "counts": outcome["counts"],
        "delta": delta,
    }


def named_metrics(state: State, repeats: list[dict], stages) -> dict:
    return {
        "compile_s": (stages[0], "s"),
        "requery_s": (stages[1] / REQUERY_CYCLES, "s"),
        "roundtrip_s": (stages[2], "s"),
    }


def _deptest_probe(state: State, rec) -> dict:
    """``DependenceTester`` on every loop's access pairs (the product
    keeps it behind NOELLE_DEPTEST; here it is called directly)."""
    module = compile_source(state.source, MODULE_NAME)
    noelle = Noelle(module)
    delta = StatsDelta(STATS)
    start = time.perf_counter()
    with rec.span("analysis.deptest"):
        for fn in module.defined_functions():
            for natural in noelle.loop_info(fn).loops():
                tester = DependenceTester(natural)
                accesses = [
                    inst for block in natural.blocks
                    for inst in block.instructions
                    if isinstance(inst, (Load, Store))
                ]
                for i, a in enumerate(accesses):
                    for b in accesses[i:]:
                        if isinstance(a, Store) or isinstance(b, Store):
                            tester.test_pair(a, b)
    return {
        "analysis.deptest_s": time.perf_counter() - start,
        "analysis.deptest_pairs": delta.counter("deptest.pairs_tested"),
        "analysis.deptest_independent": delta.counter(
            "deptest.proven_independent"),
        "analysis.deptest_dependent": delta.counter("deptest.proven_dependent"),
        "analysis.deptest_unknown": delta.counter("deptest.unknown"),
    }


def layer_metrics(state: State, rec, repeats: list[dict]) -> dict:
    last = repeats[-1]
    counts, delta = last["counts"], last["delta"]

    def seconds(name):
        return median_span_seconds(rec.spans, name, len(repeats))

    with rec.span("probe"):
        metrics = _deptest_probe(state, rec)
    aa_queries, aa_memo_hit_ratio = aa_counts(delta)
    metrics.update({
        "frontend.parse_s": seconds("frontend.parse"),
        "frontend.codegen_s": seconds("frontend.codegen"),
        "frontend.insts_out": counts["insts_in"],
        "opt.mem2reg_s": seconds("opt.mem2reg"),
        "opt.simplify_s": seconds("opt.simplify"),
        "ir.print_s": seconds("ir.print"),
        "ir.parse_s": seconds("ir.parse"),
        "ir.verify_s": seconds("ir.verify"),
        "ir.text_bytes": counts["text_bytes"],
        "analysis.pointsto_s": seconds("analysis.pointsto"),
        "analysis.pointsto_solves": delta.counter("pointsto.solves"),
        "analysis.aa_queries": aa_queries,
        "analysis.aa_memo_hit_ratio": aa_memo_hit_ratio,
        "core.pdg_materialize_s": seconds("core.pdg_materialize"),
        "core.pdg_edges": counts["pdg_edges"],
        "core.pdg_shard_builds": delta.counter("pdg.shard_builds"),
        "core.pdg_pairs_pruned": delta.counter("pdg.pairs_pruned"),
        "core.loops_s": seconds("core.loops"),
        "core.loops": counts["loops"],
        "core.sccs": counts["sccs"],
        "core.invariants": counts["invariants"],
        "core.ivs": counts["ivs"],
        "core.callgraph_s": seconds("core.callgraph"),
        "core.requery_s": seconds("core.requery"),
        "core.requery_shard_rebuilds": counts["requery_shard_rebuilds"],
        "xforms.licm_s": seconds("xforms.licm"),
        "xforms.doall_s": seconds("xforms.doall"),
        "xforms.licm_hoisted": counts["licm_hoisted"],
        "xforms.loops_parallelized.doall": counts["doall_loops"],
        "xforms.insts_out": counts["insts_out"],
        "robust.pass_s": seconds("robust.pass"),
        "robust.snapshot_s": delta.seconds("passmanager.snapshot"),
        "robust.overhead_ratio": ratio(
            seconds("robust.pass"),
            seconds("xforms.licm") + seconds("xforms.doall"),
        ),
        "robust.rollbacks": delta.counter("passmanager.rollbacks"),
    })
    return metrics
