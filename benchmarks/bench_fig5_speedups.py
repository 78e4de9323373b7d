"""Figure 5 reproduction: parallel speedups on PARSEC + MiBench.

The paper's Figure 5: gcc and icc obtain no benefit from their
auto-parallelization on these suites, while the few-hundred-line
NOELLE-based DOALL/HELIX/DSWP extract real speedups over the clang
baseline — except on benchmarks like ``crc`` whose loop-carried state
needs memory cloning (called out explicitly in Section 4.4).

Absolute speedups come from the deterministic simulated 12-core machine;
the reproduced claims are the *shape*: who wins, where, and why.
"""

import pytest
from conftest import print_table

from repro.experiments import fig5_speedups
from repro.workloads import suite


def test_fig5_parallel_speedups():
    workloads = suite("parsec") + suite("mibench")
    rows = fig5_speedups(workloads, num_cores=12)
    print_table(
        "Figure 5 — speedup over clang (12 simulated cores)",
        ["benchmark", "suite", "gcc", "icc", "DOALL", "HELIX", "DSWP"],
        [
            (
                r["benchmark"],
                r["suite"],
                f"{r['gcc']:.2f}x",
                f"{r['icc']:.2f}x",
                f"{r['doall']:.2f}x",
                f"{r['helix']:.2f}x",
                f"{r['dswp']:.2f}x",
            )
            for r in rows
        ],
    )
    by_name = {r["benchmark"]: r for r in rows}

    # Correctness first: every configuration reproduces the program output.
    for row in rows:
        for technique in ("gcc", "icc", "doall", "helix", "dswp"):
            assert row[f"{technique}_correct"], (
                f"{row['benchmark']}/{technique} changed outputs"
            )

    # Claim 1: gcc/icc essentially never obtain performance benefits.
    # (sha's table-fill loop is a textbook do-while the vendors' shape
    # requirement accepts — the lone, marginal exception, kept on purpose
    # so the governing-IV experiment has real do-while loops to find.)
    for row in rows:
        assert row["gcc"] <= 1.15, row
        assert row["icc"] <= 1.15, row
    vendor_wins = [r for r in rows if max(r["gcc"], r["icc"]) > 1.05]
    assert len(vendor_wins) <= 1

    # Claim 2: NOELLE-based tools extract real parallelism on the
    # parallel-friendly benchmarks (>2x on at least most of them).
    friendly = [r for r in rows if r["parallel_friendly"]]
    assert friendly
    wins = [r for r in friendly if max(r["doall"], r["helix"]) > 2.0]
    assert len(wins) >= 0.7 * len(friendly), (
        f"only {len(wins)}/{len(friendly)} friendly benchmarks sped up"
    )

    # Claim 3: the best NOELLE tool beats the best vendor baseline on
    # every parallel-friendly benchmark.
    for row in friendly:
        assert max(row["doall"], row["helix"], row["dswp"]) > max(
            row["gcc"], row["icc"]
        )

    # Claim 4 (the crc callout): crc32's carried checksum chain resists
    # all three techniques without memory cloning.
    crc = by_name["crc32"]
    assert max(crc["doall"], crc["helix"], crc["dswp"]) < 1.6

    # Claim 5: no technique causes a catastrophic slowdown anywhere.
    for row in rows:
        for technique in ("doall", "helix", "dswp"):
            assert row[technique] > 0.5, row
