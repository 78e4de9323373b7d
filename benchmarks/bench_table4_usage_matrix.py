"""Table 4 reproduction: which NOELLE abstraction each custom tool uses.

Prints our implementation's usage matrix next to the paper's and asserts
the paper's claim: *every* abstraction serves multiple, heterogeneous
custom tools.
"""

from conftest import print_table

from repro.experiments import (
    ALL_ABSTRACTIONS,
    USAGE_MATRIX,
    abstraction_usage_counts,
    table4,
)
from repro.experiments.tables import PAPER_USAGE_MATRIX


def _matrix_rows(matrix):
    rows = []
    for tool in matrix:
        marks = ["x" if a in matrix[tool] else "." for a in ALL_ABSTRACTIONS]
        rows.append((tool, *marks))
    return rows


def test_table4_usage_matrix():
    matrix = table4()
    headers = ["tool", *ALL_ABSTRACTIONS]
    print_table("Table 4 — abstraction usage (ours)", headers,
                _matrix_rows(USAGE_MATRIX))
    print_table("Table 4 — abstraction usage (paper)", headers,
                _matrix_rows(PAPER_USAGE_MATRIX))
    counts = abstraction_usage_counts()
    print_table(
        "Tools per abstraction",
        ["abstraction", "tools using it"],
        sorted(counts.items(), key=lambda kv: -kv[1]),
    )
    # The paper's claim: each abstraction is used by several custom tools.
    for abstraction, count in counts.items():
        assert count >= 2, f"{abstraction} used by only {count} tool(s)"
    # Heterogeneity: the layer serves both parallelizers and
    # non-parallelizers for the widely-used abstractions.
    parallelizers = {"DOALL", "HELIX", "DSWP", "PERS"}
    for abstraction in ("L", "LB", "PDG"):
        users = {t for t, used in USAGE_MATRIX.items() if abstraction in used}
        assert users & parallelizers
        assert users - parallelizers, (
            f"{abstraction} should serve non-parallelizing tools too"
        )
    assert len(matrix) == 10
