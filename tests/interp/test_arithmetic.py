"""Integer arithmetic: three implementations against an independent oracle.

The reference walker and the constant folder share ``repro.ir.values.
eval_*``; the compiled engine's emitters spell the arithmetic again on
purpose.  Sharing a definition (or pasting one) shares its bugs — the
walker, the engine and the folder all divided through a float — so the
oracle here is none of them: exact two's-complement arithmetic written
out in this file, on unsigned bit patterns and sign-magnitude division.
"""

import marshal
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.interp.compiler import _Compiler
from repro.interp.engine import engine_for
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


# -- both forms of the engine's integer wrap -----------------------------------

class TestWrapForms:
    """The engine wraps a result known to be an int with an in-range
    fast path (one statement) and any other by masking first (so a
    float raises where the walker's does).  Each form at the edges of
    its width — raw results at and beside ±2**(w-1) and ±2**w — on the
    walker, the engine and a hydrated engine, with the operands known
    ints (``add x, 0`` of a constant) or loaded from memory."""

    WIDTHS = (1, 8, 16, 32, 64)

    @staticmethod
    def operands(width: int) -> list[int]:
        half = 1 << (width - 1)
        return sorted({
            signed(value, width)
            for value in (0, 1, -1, 2, -2, half - 1, half, half + 1,
                          half >> 1, -(half >> 1))
        })

    @staticmethod
    def cast_sources(width: int) -> list[int]:
        """i64 values around ±2**(w-1) and ±2**w."""
        return sorted({
            sign * ((1 << shift) + delta)
            for shift in (width - 1, width)
            for delta in (-1, 0, 1)
            for sign in (1, -1)
        } | {0})

    @staticmethod
    def program(ty: str, values: list[int], cases, from_memory: bool) -> str:
        """``@out[k]`` = case ``k`` on ``values`` (each case a
        ``(template, result type)`` over ``%v<i>``)."""
        lines = []
        if from_memory:
            for i, value in enumerate(values):
                lines.append(
                    f"%p{i} = elem_ptr [{len(values)} x {ty}]* @in, i64 0, i64 {i}"
                )
                lines.append(f"store {ty} {value}, {ty}* %p{i}")
            for i in range(len(values)):
                lines.append(f"%v{i} = load {ty}, {ty}* %p{i}")
        else:
            for i, value in enumerate(values):
                lines.append(f"%v{i} = add {ty} {value}, {ty} 0")
        out_ty = cases[0][1]
        for k, (template, _) in enumerate(cases):
            lines.append(f"%r{k} = {template}")
            lines.append(
                f"%o{k} = elem_ptr [{len(cases)} x {out_ty}]* @out, i64 0, i64 {k}"
            )
            lines.append(f"store {out_ty} %r{k}, {out_ty}* %o{k}")
        return (
            f"@in = global [{len(values)} x {ty}]\n"
            f"@out = global [{len(cases)} x {out_ty}]\n\n"
            "define @main() -> i64 {\nentry:\n"
            + "".join(f"  {line}\n" for line in lines)
            + "  ret i64 0\n}\n"
        )

    @staticmethod
    def three_executors(text: str) -> list[list[int]]:
        """``@out`` after a run on the walker, the engine, and an engine
        whose code came through the artifact cache's byte forms."""
        module = parse_module(text)
        compiled = engine_for(module).compiled(module.functions["main"])
        twin = parse_module(text)
        engine_for(twin).adopt(
            twin.functions["main"],
            pickle.loads(pickle.dumps(compiled.plan)),
            marshal.loads(marshal.dumps(compiled.code)),
        )
        outs = []
        for module, engine in (
            (module, "reference"), (module, "compiled"), (twin, "compiled"),
        ):
            interp = Interpreter(module, engine=engine)
            interp.run()
            out = module.globals["out"]
            base = interp.globals[id(out)]
            size = out.allocated_type.size_in_slots()
            outs.append([interp.memory.slots[base + k] for k in range(size)])
        return outs

    @staticmethod
    def wraps(text: str) -> tuple[int, int]:
        """(fast, masking) wraps in ``@main``'s generated source."""
        module = parse_module(text)
        source = _Compiler(module.functions["main"]).source()
        return source.count("(w_ := "), source.count(" & ")

    @pytest.mark.parametrize("from_memory", [False, True],
                             ids=["known_int", "from_memory"])
    @pytest.mark.parametrize("width", WIDTHS)
    def test_binary(self, width, from_memory):
        ty = f"i{width}"
        values = self.operands(width)
        pairs = [(i, j) for i in range(len(values)) for j in range(len(values))]
        cases = [
            (f"{op} {ty} %v{i}, {ty} %v{j}", ty)
            for op in ("add", "sub", "mul") for i, j in pairs
        ]
        text = self.program(ty, values, cases, from_memory)
        want = [
            expected_binary(op, values[i], values[j], width)
            for op in ("add", "sub", "mul") for i, j in pairs
        ]
        assert self.three_executors(text) == [want] * 3
        fast, masking = self.wraps(text)
        if from_memory:
            assert fast == 0 and masking >= len(cases)
        else:
            assert fast == len(cases) + len(values)

    @pytest.mark.parametrize("from_memory", [False, True],
                             ids=["known_int", "from_memory"])
    @pytest.mark.parametrize("width", WIDTHS[:-1])
    def test_casts(self, width, from_memory):
        ty = f"i{width}"
        sources = self.cast_sources(width)
        cases = [(f"trunc i64 %v{i} to {ty}", ty) for i in range(len(sources))]
        text = self.program("i64", sources, cases, from_memory)
        want = [expected_cast("trunc", a, 64, width) for a in sources]
        assert self.three_executors(text) == [want] * 3
        fast, _ = self.wraps(text)
        assert fast == (0 if from_memory else 2 * len(sources))

        values = self.operands(width)
        cases = [(f"sext {ty} %v{i} to i64", "i64") for i in range(len(values))]
        text = self.program(ty, values, cases, from_memory)
        want = [expected_cast("sext", a, width, 64) for a in values]
        assert self.three_executors(text) == [want] * 3
        fast, _ = self.wraps(text)
        assert fast == (0 if from_memory else 2 * len(values))


class TestFusedCompare:
    """An ``icmp`` of two known ints read only by the ``cond_br`` after
    it is that branch's test, with no local: every predicate, at the
    edges of two widths, against the oracle on both executors."""

    @pytest.mark.parametrize("width", [8, 64])
    @pytest.mark.parametrize("predicate", ICMP_PREDICATES)
    def test_branch_on_compare(self, predicate, width):
        ty = f"i{width}"
        text = (
            f"define @f({ty} %x, {ty} %y) -> i64 {{\n"
            "entry:\n"
            f"  %a = add {ty} %x, {ty} 0\n"
            f"  %b = add {ty} %y, {ty} 0\n"
            f"  %c = icmp {predicate} {ty} %a, {ty} %b\n"
            "  br i1 %c, label %yes, label %no\n"
            "yes:\n  ret i64 1\n"
            "no:\n  ret i64 0\n"
            "}\n"
        )
        module = parse_module(text)
        assert " else 0" not in _Compiler(module.functions["f"]).source()
        values = sorted({signed(v, width) for v in BOUNDARY})
        for a in values:
            for b in values:
                want = expected_icmp(predicate, a, b, width)
                for engine in ("reference", "compiled"):
                    got = Interpreter(module, engine=engine).run("f", [a, b])
                    assert got.return_value == want, (engine, a, b)

    def test_a_compare_read_twice_keeps_its_local(self):
        text = (
            "define @f(i64 %x) -> i64 {\n"
            "entry:\n"
            "  %a = add i64 %x, i64 0\n"
            "  %c = icmp ult i64 %a, i64 5\n"
            "  br i1 %c, label %yes, label %no\n"
            "yes:\n  %z = zext i1 %c to i64\n  ret i64 %z\n"
            "no:\n  ret i64 7\n"
            "}\n"
        )
        module = parse_module(text)
        assert " else 0" in _Compiler(module.functions["f"]).source()
        for x, want in ((3, 1), (-1, 7), (5, 7)):
            for engine in ("reference", "compiled"):
                result = Interpreter(module, engine=engine).run("f", [x])
                assert result.return_value == want
