"""Section 4.5 reproduction: DEAD shrinks binaries.

The paper: DeadFunctionElimination reduces binary size by 6.3% on average
across the 41 benchmarks, beyond ``clang -Oz``.  Size is proxied by the
whole-module IR instruction count (the quantity DEAD is specified to
reduce without increasing anything else); each workload links a small
utility library of which only parts are reachable.
"""

from conftest import print_table

from repro.experiments import sec45_binary_size


def test_sec45_dead_function_elimination():
    rows = sec45_binary_size()
    print_table(
        "Section 4.5 — binary size (IR instructions) before/after DEAD",
        ["benchmark", "before", "after", "removed fns", "reduction"],
        [
            (r["benchmark"], r["size_before"], r["size_after"],
             r["removed_functions"], f"{r['reduction_pct']:.1f}%")
            for r in rows
        ],
    )
    average = sum(r["reduction_pct"] for r in rows) / len(rows)
    print(f"\naverage reduction: {average:.1f}% (paper: 6.3%)")
    # Never grows (the tool's specification), always shrinks on average.
    for row in rows:
        assert row["size_after"] <= row["size_before"]
    assert average > 3.0
    # Every workload drags in the same dead library tail, so every row
    # must remove at least one function.
    assert all(r["removed_functions"] >= 1 for r in rows)
