"""Shared helpers for the paper benches.

Every bench regenerates one table or figure of the paper: it computes the
data, prints it in the paper's format (so ``pytest -s benchmarks/`` shows
the reproduction) and asserts the qualitative claims.  The experiments
are deterministic and nothing here reads a clock: every timing this
repository reports comes from ``benchmarks/e2e`` (``BENCHMARK.json``).
"""


def print_table(title, headers, rows):
    """Print an aligned text table (the bench's human-readable output)."""
    widths = [len(h) for h in headers]
    rendered = []
    for row in rows:
        cells = [str(c) for c in row]
        rendered.append(cells)
        for index, cell in enumerate(cells):
            widths[index] = max(widths[index], len(cell))
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for cells in rendered:
        print("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
