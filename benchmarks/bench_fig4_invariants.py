"""Figure 4 reproduction: loop invariants found, LLVM vs NOELLE.

Algorithm 1 (LLVM's low-level case analysis) vs Algorithm 2 (NOELLE's
PDG recursion), per benchmark.  The paper: "NOELLE detects significantly
more invariants than LLVM even if the former relies on a simpler and
shorter algorithm."
"""

from conftest import print_table

from repro.experiments import fig4_invariants


def test_fig4_invariants():
    rows = fig4_invariants()
    print_table(
        "Figure 4 — loop invariants detected",
        ["benchmark", "suite", "LLVM (Alg.1)", "NOELLE (Alg.2)"],
        [
            (r["benchmark"], r["suite"], r["llvm_invariants"],
             r["noelle_invariants"])
            for r in rows
        ],
    )
    total_llvm = sum(r["llvm_invariants"] for r in rows)
    total_noelle = sum(r["noelle_invariants"] for r in rows)
    print(f"\nTOTAL: LLVM {total_llvm} vs NOELLE {total_noelle}")
    # NOELLE never finds fewer, and finds strictly more overall.
    for row in rows:
        assert row["noelle_invariants"] >= row["llvm_invariants"], row
    assert total_noelle > total_llvm * 1.3
    # The simpler algorithm is also literally shorter (Section 2.5).
    from repro.experiments import count_loc

    assert count_loc("core/invariants.py") < count_loc(
        "baselines/invariants_llvm.py"
    )
