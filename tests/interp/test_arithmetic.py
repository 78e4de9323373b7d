"""Integer arithmetic: three implementations against an independent oracle.

The reference walker and the constant folder share ``repro.ir.values.
eval_*``; the compiled engine's emitters spell the arithmetic again on
purpose.  Sharing a definition (or pasting one) shares its bugs — the
walker, the engine and the folder all divided through a float — so the
oracle here is none of them: exact two's-complement arithmetic written
out in this file, on unsigned bit patterns and sign-magnitude division.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.interp.interp import InterpError, Interpreter
from repro.ir import parse_module, print_module
from repro.ir.instructions import ICMP_PREDICATES, INT_BINARY_OPS
from repro.ir.values import ConstantInt
from repro.opt import simplify_module

WIDTHS = (1, 8, 32, 64)


# -- the oracle ---------------------------------------------------------------

def signed(bits: int, width: int) -> int:
    """The signed value of the low ``width`` bits of ``bits``."""
    bits &= (1 << width) - 1
    return bits - (1 << width) if bits >> (width - 1) else bits


def expected_binary(op: str, a: int, b: int, width: int) -> int:
    ua, ub = a & ((1 << width) - 1), b & ((1 << width) - 1)
    shift = ub % width
    if op == "add":
        bits = ua + ub
    elif op == "sub":
        bits = ua - ub
    elif op == "mul":
        bits = ua * ub
    elif op == "sdiv":
        magnitude = abs(a) // abs(b)
        bits = -magnitude if (a < 0) != (b < 0) else magnitude
    elif op == "srem":
        magnitude = abs(a) % abs(b)
        bits = -magnitude if a < 0 else magnitude
    elif op == "and":
        bits = ua & ub
    elif op == "or":
        bits = ua | ub
    elif op == "xor":
        bits = ua ^ ub
    elif op == "shl":
        bits = ua << shift
    elif op == "lshr":
        bits = ua >> shift
    else:
        assert op == "ashr"
        bits = a >> shift
    return signed(bits, width)


def expected_icmp(predicate: str, a: int, b: int, width: int) -> int:
    if predicate[0] == "u":
        a, b = a & ((1 << width) - 1), b & ((1 << width) - 1)
    return int({
        "eq": a == b, "ne": a != b,
        "lt": a < b, "le": a <= b, "gt": a > b, "ge": a >= b,
    }[predicate.lstrip("su")])


def expected_cast(op: str, a: int, width: int, to_width: int) -> int:
    if op == "zext":
        a &= (1 << width) - 1
    return signed(a, to_width)


# -- the three implementations ---------------------------------------------------

def three_ways(instruction: str, result_type: str):
    """``instruction`` (defining ``%r`` from constants) as the walker,
    the engine and the folder each evaluate it; an ``InterpError``
    message or ``"unfolded"`` stands in where there is no value."""
    module = parse_module(
        f"define @main() -> {result_type} {{\n"
        f"entry:\n"
        f"  {instruction}\n"
        f"  ret {result_type} %r\n"
        f"}}\n"
    )
    outcomes = []
    for engine in ("reference", "compiled"):
        try:
            outcomes.append(Interpreter(module, engine=engine).run().return_value)
        except InterpError as error:
            outcomes.append(str(error))
    simplify_module(module)
    folded = module.functions["main"].blocks[0].terminator.value
    outcomes.append(
        folded.value if isinstance(folded, ConstantInt) else "unfolded"
    )
    return outcomes


def check(a: int, b: int, width: int) -> None:
    """Every integer instruction on ``a``, ``b`` wrapped to ``width``."""
    a, b = signed(a, width), signed(b, width)
    ty = f"i{width}"
    for op in INT_BINARY_OPS:
        got = three_ways(f"%r = {op} {ty} {a}, {ty} {b}", ty)
        if op in ("sdiv", "srem") and b == 0:
            noun = "division" if op == "sdiv" else "remainder"
            assert got == [f"{noun} by zero"] * 2 + ["unfolded"], (op, a, b)
            continue
        want = expected_binary(op, a, b, width)
        assert got == [want] * 3, (op, ty, a, b, want, got)
    for predicate in ICMP_PREDICATES:
        got = three_ways(f"%r = icmp {predicate} {ty} {a}, {ty} {b}", "i1")
        want = expected_icmp(predicate, a, b, width)
        # An i1 is 1 in a register and -1 as a constant: the same bit.
        assert [g & 1 for g in got] == [want] * 3, (predicate, ty, a, b, got)
    for to_width in WIDTHS:
        if to_width == width:
            continue
        ops = ("trunc",) if to_width < width else ("zext", "sext")
        for op in ops:
            got = three_ways(f"%r = {op} {ty} {a} to i{to_width}", f"i{to_width}")
            want = expected_cast(op, a, width, to_width)
            assert got == [want] * 3, (op, ty, to_width, a, want, got)


#: The edges of every width, and the first integers a float cannot hold.
BOUNDARY = sorted({
    value
    for width in WIDTHS
    for value in (0, 1, -1, 2 ** (width - 1), -(2 ** (width - 1)),
                  2 ** (width - 1) - 1)
} | {2 ** 53 + 1, -(2 ** 53 + 1), 2 ** 62 + 1, -(2 ** 62 + 1)})


class TestAgainstTwosComplement:
    @pytest.mark.parametrize("width", WIDTHS)
    def test_boundary_grid(self, width):
        values = sorted({signed(value, width) for value in BOUNDARY})
        for a in values:
            for b in values:
                check(a, b, width)

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.integers(-(2 ** 64), 2 ** 64),
        b=st.integers(-(2 ** 64), 2 ** 64),
        width=st.sampled_from(WIDTHS),
    )
    @example(a=-1, b=1, width=64)  # unsigned compare of a negative
    @example(a=2 ** 53 + 1, b=1, width=64)  # the quotient a float rounds
    @example(a=-(2 ** 62 + 1), b=3, width=64)
    def test_any_operands(self, a, b, width):
        check(a, b, width)


# -- the defects this file was written for ----------------------------------------

class TestRegressions:
    def test_unsigned_compare_folds_as_it_executes(self):
        """``icmp ult -1, 1`` is false: -1 is the largest unsigned value.
        The folder used to compare the signed values and fold it to 1."""
        text = (
            "define @main() -> i64 {\n"
            "entry:\n"
            "  %c = icmp ult i64 -1, i64 1\n"
            "  %z = zext i1 %c to i64\n"
            "  call void @print_int(i64 %z)\n"
            "  ret i64 0\n"
            "}\n"
            "declare @print_int(i64 %arg0) -> void io\n"
        )
        module = parse_module(text)
        assert Interpreter(module, engine="reference").run().output == [0]
        assert Interpreter(module, engine="compiled").run().output == [0]
        folded = parse_module(text)  # a module no engine has compiled yet
        assert simplify_module(folded)
        assert "icmp" not in print_module(folded)
        assert Interpreter(folded, engine="reference").run().output == [0]
        assert Interpreter(folded, engine="compiled").run().output == [0]

    @pytest.mark.parametrize("big", [2 ** 53 + 1, 2 ** 62 + 1])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_division_is_exact_above_2_to_the_53(self, big, sign):
        """``int(a / b)`` went through a float: 2**53 + 1 divided by 1
        came back even, on the walker, the engine and the folder alike."""
        a = sign * big
        assert three_ways(f"%r = sdiv i64 {a}, i64 1", "i64") == [a] * 3
        assert three_ways(f"%r = sdiv i64 {a}, i64 -1", "i64") == [-a] * 3
        assert three_ways(f"%r = srem i64 {a}, i64 2", "i64") == [sign] * 3
        assert three_ways(f"%r = srem i64 {a}, i64 {a - sign}", "i64") == [sign] * 3
