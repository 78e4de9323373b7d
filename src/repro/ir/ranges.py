"""Integer range facts: which values an integer can take.

The one module that decides it: for scalar evolution's trip counts and
recurrence ranges (and through them the ``srem`` fold, the sanitizer's
symbolic bounds and the dependence tester) and for the compiled
engine's no-wrap proofs.  A range is an inclusive ``(low, high)``; None
claims nothing.  tests/ir/test_ranges.py checks every function here
exhaustively at small widths against the concrete semantics in
:mod:`repro.ir.values`.

**The width rule.**  A ``w``-bit result wraps into
``[-2**(w-1), 2**(w-1))``, so a recurrence's closed form
``start + step*i`` is its value only while every value up to ``i``
fits; given a width, nothing is claimed past that.  **The i64
assumption.**  A 64-bit recurrence whose trip is unknown is assumed not
to wrap: MiniC's ``int`` is ``i64``, and C leaves signed overflow
undefined.  A narrower one needs a known trip over which it fits.
"""

from __future__ import annotations

from .values import ConstantInt

Range = tuple[int, int]


def signed_range(width: int) -> Range:
    """Every value a ``width``-bit integer can hold."""
    half = 1 << (width - 1)
    return (-half, half - 1)


def fits(span: Range | None, width: int) -> bool:
    """Whether every value of ``span`` (None: unknown) fits ``width`` bits."""
    if span is None:
        return False
    low, high = signed_range(width)
    return low <= span[0] and span[1] <= high


def affine_range(
    start: int, step: int, count: int | None, width: int | None = None
) -> Range | None:
    """Inclusive range of ``start + step*i`` over ``0 <= i < count``; None
    when the count is unknown or not positive, or a value leaves
    ``width`` bits."""
    if count is None or count <= 0:
        return None
    last = start + step * (count - 1)
    span = (min(start, last), max(start, last))
    return span if width is None or fits(span, width) else None


def first_exit(
    predicate: str, start: int, step: int, bound: int, width: int
) -> int | None:
    """First ``i >= 0`` where ``(start + step*i) predicate bound`` is false.

    None when it never fails, when only wraparound would make it fail
    (unsigned predicates are not modelled), and when the ``width``-bit
    recurrence wraps at or before that iteration.
    """
    index = _first_failure(predicate, start, step, bound)
    if index is None or not fits((bound, bound), width):
        return None
    return index if affine_range(start, step, index + 1, width) else None


def _first_failure(
    predicate: str, start: int, step: int, bound: int
) -> int | None:
    """:func:`first_exit` in unbounded integers."""
    if predicate in ("sgt", "sge"):  # x > b  <=>  -x < -b
        predicate = "sl" + predicate[2]
        start, step, bound = -start, -step, -bound
    if predicate == "sle":
        predicate, bound = "slt", bound + 1
    if predicate == "slt":
        if start >= bound:
            return 0
        return -((start - bound) // step) if step > 0 else None
    if predicate == "ne":
        if step == 0:
            return 0 if start == bound else None
        quotient, remainder = divmod(bound - start, step)
        # Otherwise the value steps over the bound, or away from it.
        return quotient if remainder == 0 and quotient >= 0 else None
    if predicate == "eq":
        return None if step == 0 and start == bound else int(start == bound)
    return None


def span_of(value, width: int) -> Range:
    """A constant's point range, or the full range of ``width`` bits."""
    if isinstance(value, ConstantInt):
        return (value.value, value.value)
    return signed_range(width)


def result_range(
    opcode: str, lhs: Range, rhs: Range | None, width: int
) -> Range | None:
    """Range of the *unwrapped* result of ``opcode`` on ``width``-bit
    operands in ``lhs`` and ``rhs`` (None for a cast), as the engine
    computes it: ``a & b``, ``(a & mask) >> (b % width)``, the truncated
    remainder, ``a & mask``.

    Covers ``and`` with a non-negative operand, ``lshr`` by a constant,
    ``srem`` by a positive constant and ``zext`` from ``width`` bits;
    anything else is None.
    """
    if opcode == "and":
        highs = [high for low, high in (lhs, rhs) if low >= 0]
        return (0, min(highs)) if highs else None
    if opcode == "zext":
        return (0, (1 << width) - 1)
    if rhs is None or rhs[0] != rhs[1]:
        return None
    if opcode == "lshr":
        return (0, ((1 << width) - 1) >> (rhs[0] % width))
    if opcode == "srem" and rhs[0] > 0:
        return (1 - rhs[0], rhs[0] - 1)
    return None
