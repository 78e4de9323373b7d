"""Section 4.4 reproduction: SPEC-shaped suite speedups.

The paper: on 14 SPEC CPU2017 benchmarks only the NOELLE-based tools
obtain speedups, and those are modest (1–5%) — SPEC's hot loops hide
behind carried state and irregular control, and "speculative techniques
are likely to be required to unlock further speedups."
"""

from conftest import print_table

from repro.experiments import spec_speedups


def test_spec_modest_speedups():
    rows = spec_speedups(num_cores=12)
    print_table(
        "Section 4.4 — SPEC-shaped suite (12 simulated cores)",
        ["benchmark", "DOALL", "HELIX", "friendly?"],
        [
            (r["benchmark"], f"{r['doall']:.2f}x", f"{r['helix']:.2f}x",
             "yes" if r["parallel_friendly"] else "no")
            for r in rows
        ],
    )
    for row in rows:
        assert row["doall_correct"] and row["helix_correct"], row
    # The serial-dominated benchmarks stay near 1.0x (the paper's 1–5%
    # band) — no tool invents parallelism that is not there.
    unfriendly = [r for r in rows if not r["parallel_friendly"]]
    assert unfriendly
    for row in unfriendly:
        assert 0.6 <= row["doall"] <= 1.7, row
        assert 0.6 <= row["helix"] <= 1.7, row
    # The kernels with genuinely parallel hot loops do better — our suite
    # intentionally includes both populations.
    friendly = [r for r in rows if r["parallel_friendly"]]
    assert any(max(r["doall"], r["helix"]) > 1.5 for r in friendly)
