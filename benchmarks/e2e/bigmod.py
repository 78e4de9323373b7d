"""Seeded generator of the ``bigmod`` MiniC module.

Program size is the traffic dimension the 21 registry programs lack
(together they compile to about 1 200 IR instructions), so this module
is what makes frontend, points-to, PDG, loop abstractions, snapshots
and the IR printer/parser show up in a measurement.  It is sized by an
IR-instruction target and never by wall time; the same seed and target
give byte-identical source.

One kernel function is the unit that is repeated:

* three ``int *`` parameters that ``main`` binds to global arrays.
  A third of the kernels get three distinct arrays and only ever
  accumulates into ``q[i + c]``: points-to separates the parameters,
  no iteration touches another's slot, DOALL applies.  The others get
  overlapping windows of one array (may-alias) and write ``p``/``q``
  at seeded strides and offsets: DOALL must refuse;
* an outer counted loop of 12–24 statements
  ``dst[a*i+b] = (src[c*i+d] + r[e*i+f] * k + inv) % M`` — the
  dependence tester meets provably independent pairs (equal strides,
  offsets that never meet), provably dependent pairs (constant
  distance) and pairs it cannot decide (different strides);
* ``inv``, a loop-invariant expression for LICM to hoist, and a nested
  inner loop carrying a sum reduction;
* small literal trip counts, so the reference walker runs the whole
  module in set-up.

The kernels' shapes (DOALL-able or aliasing, statement count) are a
fixed multiset that the seed only shuffles, so every seed generates the
same amount of work; the seed decides the order, strides, offsets,
constants and which arrays alias.  Subscripts stay
inside the arrays by construction and values are reduced modulo small
primes, so no run traps or overflows.
"""

from __future__ import annotations

import random

NUM_ARRAYS = 8
MAX_TRIP = 8
MAX_STRIDE = 3
MAX_OFFSET = 12
MAX_WINDOW = 24
STATEMENT_COUNTS = (12, 14, 16, 18, 20, 22, 24)
#: Elements per global array; the largest slot a kernel reaches is
#: MAX_WINDOW + MAX_STRIDE * (MAX_TRIP - 1) + MAX_OFFSET = 57.
ARRAY_SIZE = 64
MODULUS = 1009
CHECKSUM_MODULUS = 1000003

#: Measured IR instructions per statement and per kernel (frame, inner
#: loop, call) — used only to turn the instruction target into a kernel
#: count; the benchmark reports the real count (``frontend.insts_out``).
INSTS_PER_STATEMENT = 14
INSTS_PER_KERNEL = 45


def num_kernels(target_insts: int) -> int:
    mean_statements = sum(STATEMENT_COUNTS) / len(STATEMENT_COUNTS)
    per_kernel = mean_statements * INSTS_PER_STATEMENT + INSTS_PER_KERNEL
    return max(3, round(target_insts / per_kernel))


def _subscript(rng: random.Random, var: str) -> str:
    return f"{rng.randint(1, MAX_STRIDE)} * {var} + {rng.randint(0, MAX_OFFSET)}"


def _kernel(rng: random.Random, index: int, parallel: bool,
            statements: int) -> str:
    lines = [
        f"int kern{index}(int *p, int *q, int *r, int n) {{",
        "  int i;",
        "  int j;",
        "  int acc = 0;",
        f"  for (i = 0; i < {rng.randint(4, MAX_TRIP)}; i = i + 1) {{",
        f"    int inv = n * {rng.randint(2, 9)} + {rng.randint(1, 9)};",
    ]
    slot = f"q[1 * i + {rng.randint(0, MAX_OFFSET)}]"
    for _ in range(statements):
        if parallel:
            dst = slot
            src = f"{slot} + p[{_subscript(rng, 'i')}]"
        else:
            dst = f"{rng.choice('pq')}[{_subscript(rng, 'i')}]"
            src = f"{rng.choice('pqr')}[{_subscript(rng, 'i')}]"
        lines.append(
            f"    {dst} = ({src} + r[{_subscript(rng, 'i')}] * "
            f"{rng.randint(2, 7)} + inv) % {MODULUS};"
        )
    lines.append(f"    for (j = 0; j < {rng.randint(2, 5)}; j = j + 1) {{")
    if parallel:
        # The nested loop feeds the same slot and the sum is taken at
        # the outer level: nothing is carried across outer iterations
        # except a plain reduction.
        lines += [
            f"      {slot} = ({slot} + p[{_subscript(rng, 'j')}] * "
            f"r[{_subscript(rng, 'j')}]) % {MODULUS};",
            "    }",
            f"    acc = acc + {slot} % 97;",
        ]
    else:
        lines += [
            f"      acc = acc + (p[{_subscript(rng, 'j')}] + "
            f"q[{_subscript(rng, 'j')}]) % 97;",
            "    }",
        ]
    lines += ["  }", "  return acc;", "}"]
    return "\n".join(lines)


def _call(rng: random.Random, index: int, parallel: bool) -> str:
    """The call that binds kernel ``index``'s pointers to globals."""
    if parallel:
        a, b, c = rng.sample(range(NUM_ARRAYS), 3)
        args = f"&g{a}[0], &g{b}[0], &g{c}[0]"
    else:
        a = rng.randrange(NUM_ARRAYS)
        args = ", ".join(
            f"&g{a}[{rng.randint(0, MAX_WINDOW)}]" for _ in range(3)
        )
    return (
        f"  total = (total + kern{index}({args}, {rng.randint(1, 9)})) "
        f"% {CHECKSUM_MODULUS};"
    )


_HELPERS = f"""\
void fill(int *g, int mul, int add) {{
  int i;
  for (i = 0; i < {ARRAY_SIZE}; i = i + 1) {{
    g[i] = (i * mul + add) % {MODULUS};
  }}
}}

int fold(int *g, int total) {{
  int i;
  for (i = 0; i < {ARRAY_SIZE}; i = i + 1) {{
    total = (total + g[i] * (i + 1)) % {CHECKSUM_MODULUS};
  }}
  return total;
}}"""


def generate(seed: int, target_insts: int) -> str:
    """MiniC source of a module of about ``target_insts`` IR instructions."""
    rng = random.Random(seed)
    # (DOALL-able?, statements) per kernel: the same multiset for every
    # seed, in a seeded order.
    shapes = [
        (k % 3 == 0, STATEMENT_COUNTS[(k // 3) % len(STATEMENT_COUNTS)])
        for k in range(num_kernels(target_insts))
    ]
    rng.shuffle(shapes)
    parts = [f"int g{k}[{ARRAY_SIZE}];" for k in range(NUM_ARRAYS)]
    parts.append(_HELPERS)
    parts += [
        _kernel(rng, k, parallel, statements)
        for k, (parallel, statements) in enumerate(shapes)
    ]
    main = ["int main() {", "  int total = 0;"]
    main += [
        f"  fill(&g{k}[0], {rng.randint(3, 97)}, {rng.randint(1, 50)});"
        for k in range(NUM_ARRAYS)
    ]
    main += [
        _call(rng, k, parallel) for k, (parallel, _) in enumerate(shapes)
    ]
    main += [f"  total = fold(&g{k}[0], total);" for k in range(NUM_ARRAYS)]
    main += ["  print_int(total);", "  return 0;", "}"]
    parts.append("\n".join(main))
    return "\n\n".join(parts) + "\n"
