"""Table 3 reproduction: custom-tool LoC with NOELLE vs without.

The paper's headline result — building on NOELLE cuts each custom tool's
code by 33.2%–99.2%.  For LICM the "without NOELLE" side is *measured*
(we implemented the standalone baseline); for the others it is *modeled*
as the tool's own LoC plus the layer modules a from-scratch build would
have to inline (see DESIGN.md, evaluation-fidelity notes).
"""

from conftest import print_table

from repro.experiments import table3


def test_table3_loc_reduction():
    rows = table3()
    print_table(
        "Table 3 — custom tools (LoC): LLVM-only vs on NOELLE",
        ["tool", "llvm", "noelle", "reduction", "paper llvm", "paper noelle",
         "paper red.", "llvm side"],
        [
            (
                r["tool"],
                r["llvm_loc"],
                r["noelle_loc"],
                f"{r['reduction_pct']:.1f}%",
                r["paper_llvm_loc"],
                r["paper_noelle_loc"],
                f"{r['paper_reduction_pct']:.1f}%",
                r["llvm_kind"],
            )
            for r in rows
        ],
    )
    by_tool = {r["tool"]: r for r in rows}
    # Every tool shrinks substantially on NOELLE.
    for row in rows:
        assert row["reduction_pct"] > 25.0, row
    # Ordering claims from the paper: DEAD and PRVJ are near-total
    # reductions; the parallelizers reduce by ~90%.
    assert by_tool["DEAD"]["reduction_pct"] > 85
    assert by_tool["PRVJ"]["reduction_pct"] > 90
    for parallelizer in ("DOALL", "HELIX"):
        assert by_tool[parallelizer]["reduction_pct"] > 80
    # All NOELLE-based tools except the Perspective port are "a few
    # hundred lines" (the paper's abstract: fewer than a thousand).
    for row in rows:
        if row["tool"] != "PERS":
            assert row["noelle_loc"] < 1000
