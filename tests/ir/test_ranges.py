"""The integer range table, checked exhaustively against the concrete
semantics of :mod:`repro.ir.values` at small widths."""

import math
import random

import pytest

from repro.ir import IntType
from repro.ir.instructions import INT_BINARY_OPS
from repro.ir.ranges import (
    affine_range,
    fits,
    first_exit,
    result_range,
    signed_range,
)
from repro.ir.values import eval_binary, eval_cast, eval_icmp

#: The predicates a trip count is derived from.
PREDICATES = ("slt", "sle", "sgt", "sge", "eq", "ne")


def values(span):
    return range(span[0], span[1] + 1)


def concrete_exit(predicate, start, step, bound, width):
    """(first iteration whose test fails, whether the IV wrapped on or
    before it), by running the recurrence; (None, None) if it never
    fails (its values repeat after ``2**width`` steps)."""
    ty = IntType(width)
    value = start
    wrapped = False
    for i in range(1 << width):
        wrapped = wrapped or value != start + step * i
        if not eval_icmp(predicate, value, bound, width):
            return i, wrapped
        value = eval_binary("add", value, step, ty)
    return None, None


def check_first_exit(predicate, start, step, bound, width):
    """The table's claim equals the concrete exit, and it claims one
    whenever the IV reaches its exit without wrapping."""
    claimed = first_exit(predicate, start, step, bound, width)
    exit_at, wrapped = concrete_exit(predicate, start, step, bound, width)
    if claimed is not None:
        assert claimed == exit_at, (predicate, start, step, bound)
    if exit_at is not None and not wrapped:
        assert claimed == exit_at, (predicate, start, step, bound)
    return claimed is not None


def test_first_exit_is_the_concrete_exit_at_i4():
    low, high = signed_range(4)
    claims = sum(
        check_first_exit(predicate, start, step, bound, 4)
        for predicate in PREDICATES
        for start in range(low, high + 1)
        for step in range(low, high + 1)
        for bound in range(low, high + 1)
    )
    assert claims > 10_000


def test_first_exit_sample_at_i8():
    rng = random.Random(8)
    low, high = signed_range(8)
    claims = 0
    for _ in range(2_000):
        claims += check_first_exit(
            rng.choice(PREDICATES), rng.randint(low, high),
            rng.randint(low, high), rng.randint(low, high), 8,
        )
    assert claims > 500


def test_first_exit_claims_nothing_it_does_not_model():
    assert first_exit("ult", 0, 1, 5, 8) is None
    # A bound folded outside the width is not what the compare reads.
    assert first_exit("slt", 0, 1, 200, 8) is None


def test_affine_range_is_the_concrete_range_at_i4():
    ty = IntType(4)
    low, high = signed_range(4)
    for start in range(low, high + 1):
        for step in range(low, high + 1):
            value, seen, wrapped = start, [], False
            for count in range(0, 18):
                claimed = affine_range(start, step, count, 4)
                unbounded = affine_range(start, step, count)
                if count == 0:
                    assert claimed is None and unbounded is None
                else:
                    span = (min(seen), max(seen))
                    if claimed is not None:
                        assert claimed == span and not wrapped
                    if not wrapped:
                        assert claimed == span == unbounded
                wrapped = wrapped or value != start + step * count
                seen.append(value)
                value = eval_binary("add", value, step, ty)
    assert affine_range(0, 1, None) is None


#: The results the engine computes without a wrap, as it spells them.
UNWRAPPED = {
    "and": lambda a, b, width: a & b,
    "lshr": lambda a, b, width: (a & ((1 << width) - 1)) >> (b % width),
    "srem": lambda a, b, width: int(math.fmod(a, b)),
}


def check_binary(opcode, lhs, rhs, width):
    """Every result is in the claimed range, and a claimed fit is the
    wrapped result.  Returns whether the table claimed a fit."""
    claimed = result_range(opcode, lhs, rhs, width)
    if claimed is None:
        return False
    ty = IntType(width)
    for a in values(lhs):
        for b in values(rhs):
            raw = UNWRAPPED[opcode](a, b, width)
            assert claimed[0] <= raw <= claimed[1], (opcode, a, b)
            if fits(claimed, width):
                assert raw == eval_binary(opcode, a, b, ty), (opcode, a, b)
    return fits(claimed, width)


def points(width):
    return [(c, c) for c in values(signed_range(width))]


@pytest.mark.parametrize("opcode", sorted(UNWRAPPED))
def test_result_range_over_every_span_pair_at_i4(opcode):
    spans = [signed_range(4)] + points(4)
    for lhs in spans:
        for rhs in spans:
            check_binary(opcode, lhs, rhs, 4)


def test_result_range_fits_exactly_where_the_engine_elides_at_i8():
    full = signed_range(8)
    for c in values(full):
        point = (c, c)
        assert check_binary("and", full, point, 8) == (c >= 0)
        assert check_binary("and", point, full, 8) == (c >= 0)
        assert check_binary("lshr", full, point, 8) == (c % 8 != 0)
        assert check_binary("srem", full, point, 8) == (c > 0)
    assert not check_binary("and", full, full, 8)


@pytest.mark.parametrize("width", [4, 8])
def test_zext_fits_only_a_wider_type(width):
    claimed = result_range("zext", signed_range(width), None, width)
    for to in (width, width + 1, 2 * width, 64):
        claims_fit = fits(claimed, to)
        assert claims_fit == (width < to)
        for v in values(signed_range(width)):
            raw = v & ((1 << width) - 1)
            assert claimed[0] <= raw <= claimed[1]
            if claims_fit:
                assert raw == eval_cast("zext", v, IntType(width), IntType(to))


def test_no_other_result_is_claimed():
    full = signed_range(8)
    for opcode in set(INT_BINARY_OPS) - set(UNWRAPPED):
        assert result_range(opcode, full, (3, 3), 8) is None
    assert result_range("lshr", full, full, 8) is None
    assert result_range("srem", full, full, 8) is None
    assert result_range("srem", full, (0, 0), 8) is None
    assert result_range("srem", full, (-3, -3), 8) is None
    assert result_range("trunc", full, None, 8) is None
