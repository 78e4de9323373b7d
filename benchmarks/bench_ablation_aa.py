"""Ablation: how much does the strong alias analysis matter?

DESIGN.md calls out the PDG's alias-analysis stack (the SCAF/SVF stand-in)
as a load-bearing design choice.  This ablation rebuilds the PDG with the
weak (LLVM-grade) AA and counts how many loops each parallelizer can still
accept — quantifying why the paper integrates external AA frameworks
instead of shipping with LLVM's.
"""

from conftest import print_table

from repro.analysis.aa import BasicAliasAnalysis
from repro.core import Noelle
from repro.workloads import suite
from repro.xforms import DOALL


def _count_parallelizable(weak: bool) -> dict:
    accepted = 0
    total = 0
    for workload in suite("parsec"):
        module = workload.compile()
        noelle = Noelle(module)
        if weak:
            noelle._aa = BasicAliasAnalysis()
        doall = DOALL(noelle)
        for loop in noelle.loops():
            if loop.structure.depth() != 1:
                continue
            total += 1
            if doall.can_parallelize(loop):
                accepted += 1
    return {"accepted": accepted, "total": total}


def test_ablation_alias_analysis_strength():
    results = {
        "weak (LLVM-grade AA)": _count_parallelizable(weak=True),
        "strong (Andersen / SCAF stand-in)": _count_parallelizable(weak=False),
    }
    print_table(
        "Ablation — DOALL-accepted outermost loops (PARSEC suite) by AA",
        ["configuration", "accepted", "of"],
        [(name, r["accepted"], r["total"]) for name, r in results.items()],
    )
    weak = results["weak (LLVM-grade AA)"]
    strong = results["strong (Andersen / SCAF stand-in)"]
    assert strong["total"] == weak["total"]
    # The strong AA unlocks strictly more parallelism.
    assert strong["accepted"] > weak["accepted"]
