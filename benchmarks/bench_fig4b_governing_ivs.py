"""Section 4.3 reproduction: governing induction variables, LLVM vs NOELLE.

The paper: across 41 benchmarks LLVM identifies 11 governing IVs (its
pattern expects do-while-shaped loops) while NOELLE identifies 385
(the aSCCDAG-based detector is shape-independent).  The absolute counts
scale with our suite size; the *ratio* is the reproduced claim.
"""

from conftest import print_table

from repro.experiments import governing_iv_counts


def test_governing_induction_variables():
    counts = governing_iv_counts()
    print_table(
        "Section 4.3 — governing IVs per benchmark",
        ["benchmark", "LLVM", "NOELLE"],
        [(r["benchmark"], r["llvm"], r["noelle"])
         for r in counts["per_benchmark"]],
    )
    print(
        f"\nTOTAL over {counts['loops_total']} loops: "
        f"LLVM {counts['llvm_total']} vs NOELLE {counts['noelle_total']} "
        f"(paper: {counts['paper_llvm_total']} vs "
        f"{counts['paper_noelle_total']})"
    )
    # NOELLE finds governing IVs for nearly every loop; LLVM for a small
    # minority — the 11-vs-385 shape.
    assert counts["noelle_total"] >= 0.75 * counts["loops_total"]
    assert counts["llvm_total"] <= 0.25 * counts["noelle_total"]
    assert counts["llvm_total"] >= 1, (
        "a few do-while loops exist, so LLVM must find at least one "
        "(the paper's LLVM found 11, not 0)"
    )
