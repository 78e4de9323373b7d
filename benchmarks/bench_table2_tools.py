"""Table 2 reproduction: LoC of the noelle-* deployment tools."""

from conftest import print_table

from repro.experiments import table2


def test_table2_tool_loc():
    rows = table2()
    print_table(
        "Table 2 — NOELLE tools (LoC)",
        ["tool", "ours", "paper"],
        [(r["tool"], r["loc"], r["paper_loc"]) for r in rows],
    )
    assert all(r["loc"] > 0 for r in rows)
    total = [r for r in rows if r["tool"] == "TOTAL"][0]
    # The tool layer is an order of magnitude smaller than the
    # abstractions layer (paper: 5143 vs 26142).
    from repro.experiments import table1

    abstractions_total = [r for r in table1() if r["abstraction"] == "TOTAL"][0]
    assert total["loc"] < abstractions_total["loc"]
