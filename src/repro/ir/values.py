"""Core value hierarchy for the repro IR.

Everything an instruction can reference is a :class:`Value`: constants,
function arguments, global variables, functions, basic blocks (as branch
targets), and other instructions.  Values track their uses, giving the IR
full def-use chains — the raw material the PDG and all NOELLE abstractions
are built from.
"""

from __future__ import annotations

import math
import operator
import struct
from typing import TYPE_CHECKING, Iterator

from .types import FunctionType, IntType, PointerType, Type

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from .instructions import Instruction
    from .module import Function


class Use:
    """A single operand slot: ``user.operands[index] is value``."""

    __slots__ = ("user", "index")

    def __init__(self, user: "User", index: int):
        self.user = user
        self.index = index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Use of operand {self.index} in {self.user!r}>"


class Value:
    """Base class of the SSA value hierarchy."""

    def __init__(self, ty: Type, name: str = ""):
        self.type = ty
        self.name = name
        self.uses: list[Use] = []

    # -- def-use chain ----------------------------------------------------
    def users(self) -> Iterator["User"]:
        """Iterate over the distinct users of this value."""
        seen: set[int] = set()
        for use in self.uses:
            if id(use.user) not in seen:
                seen.add(id(use.user))
                yield use.user

    def num_uses(self) -> int:
        return len(self.uses)

    def is_used(self) -> bool:
        return bool(self.uses)

    def replace_all_uses_with(self, replacement: "Value") -> None:
        """Rewrite every use of this value to ``replacement``."""
        if replacement is self:
            return
        for use in list(self.uses):
            use.user.set_operand(use.index, replacement)

    # -- printing ----------------------------------------------------------
    def ref(self) -> str:
        """The operand-position spelling of this value (e.g. ``%x``)."""
        return f"%{self.name}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.ref()}: {self.type}>"


class User(Value):
    """A value that references other values through ordered operands."""

    def __init__(self, ty: Type, name: str = ""):
        super().__init__(ty, name)
        self.operands: list[Value] = []

    def _add_operand(self, value: Value) -> None:
        use = Use(self, len(self.operands))
        self.operands.append(value)
        value.uses.append(use)

    def set_operand(self, index: int, value: Value) -> None:
        old = self.operands[index]
        for i, use in enumerate(old.uses):
            if use.user is self and use.index == index:
                del old.uses[i]
                break
        self.operands[index] = value
        value.uses.append(Use(self, index))

    def drop_all_operands(self) -> None:
        """Remove this user from every operand's use list."""
        for index, operand in enumerate(self.operands):
            operand.uses = [
                u for u in operand.uses if not (u.user is self and u.index == index)
            ]
        self.operands = []


class Constant(Value):
    """Base class for immutable compile-time values."""

    def ref(self) -> str:
        raise NotImplementedError


class ConstantInt(Constant):
    """An integer constant, wrapped to its type's bit width."""

    def __init__(self, ty: IntType, value: int):
        super().__init__(ty)
        self.value = _wrap_to_width(value, ty.width)

    def ref(self) -> str:
        return str(self.value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ConstantInt)
            and other.type == self.type
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash(("cint", self.type, self.value))


class ConstantFloat(Constant):
    """A floating-point constant."""

    def __init__(self, ty: Type, value: float):
        super().__init__(ty)
        self.value = float(value)

    def ref(self) -> str:
        """The shortest decimal that reads back as the same double, with a
        dot in its mantissa (``1.0e+20``); an infinity or a NaN is its
        bits in hex (``0x7FF0000000000000``), as LLVM spells it."""
        if not math.isfinite(self.value):
            return "0x" + struct.pack(">d", self.value).hex().upper()
        mantissa, e, exponent = repr(self.value).partition("e")
        if "." not in mantissa:
            mantissa += ".0"
        return mantissa + e + exponent

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ConstantFloat)
            and other.type == self.type
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash(("cfloat", self.type, self.value))


class ConstantNull(Constant):
    """The null pointer of a given pointer type."""

    def __init__(self, ty: PointerType):
        super().__init__(ty)

    def ref(self) -> str:
        return "null"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ConstantNull) and other.type == self.type

    def __hash__(self) -> int:
        return hash(("cnull", self.type))


class UndefValue(Constant):
    """An undefined value of a given type (LLVM ``undef``)."""

    def __init__(self, ty: Type):
        super().__init__(ty)

    def ref(self) -> str:
        return "undef"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UndefValue) and other.type == self.type

    def __hash__(self) -> int:
        return hash(("undef", self.type))


class ConstantString(Constant):
    """A constant string used as a global initializer (array of i8)."""

    def __init__(self, ty: Type, text: str):
        super().__init__(ty)
        self.text = text

    def ref(self) -> str:
        escaped = self.text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'c"{escaped}"'

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ConstantString) and other.text == self.text

    def __hash__(self) -> int:
        return hash(("cstr", self.text))


class ConstantArray(Constant):
    """A constant aggregate initializer for a global array."""

    def __init__(self, ty: Type, elements: list[Constant]):
        super().__init__(ty)
        self.elements = list(elements)

    def ref(self) -> str:
        inner = ", ".join(f"{e.type} {e.ref()}" for e in self.elements)
        return f"[{inner}]"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ConstantArray)
            and other.type == self.type
            and other.elements == self.elements
        )

    def __hash__(self) -> int:
        return hash(("carr", self.type, tuple(self.elements)))


class Argument(Value):
    """A formal parameter of a function."""

    def __init__(self, ty: Type, name: str, parent: "Function | None" = None, index: int = 0):
        super().__init__(ty, name)
        self.parent = parent
        self.index = index


class GlobalValue(Constant):
    """Base class for module-level values (globals and functions)."""

    def __init__(self, ty: Type, name: str):
        super().__init__(ty, name)

    def ref(self) -> str:
        return f"@{self.name}"


class GlobalVariable(GlobalValue):
    """A module-level variable.

    Its value is a pointer to storage of ``allocated_type``, mirroring LLVM
    where ``@g : T`` has type ``T*`` as an operand.
    """

    def __init__(
        self,
        allocated_type: Type,
        name: str,
        initializer: Constant | None = None,
        constant: bool = False,
    ):
        super().__init__(PointerType(allocated_type), name)
        self.allocated_type = allocated_type
        self.initializer = initializer
        self.constant = constant


def _wrap_to_width(value: int, width: int) -> int:
    """Wrap ``value`` into the signed range of an integer of ``width`` bits."""
    mask = (1 << width) - 1
    value &= mask
    if value >= 1 << (width - 1):
        value -= 1 << width
    return value


def wrap_int(value: int, ty: IntType) -> int:
    """Public helper used by the interpreter and constant folding."""
    return _wrap_to_width(value, ty.width)


# -- instruction arithmetic --------------------------------------------------
#
# What an arithmetic instruction computes, defined once for the reference
# walker (run-time values) and the constant folder (constants).  The
# compiled engine's emitters are deliberately *not* derived from these:
# they are the independent implementation the differential suite checks.

def eval_binary(opcode: str, a, b, ty: Type):
    """``opcode a, b`` at result type ``ty``; integer results wrap to its
    width.  ``sdiv``/``srem`` truncate toward zero (C semantics) in exact
    integer arithmetic and raise :class:`ZeroDivisionError` on a zero
    divisor; an unknown opcode raises :class:`NotImplementedError`."""
    if opcode == "fadd":
        return a + b
    if opcode == "fsub":
        return a - b
    if opcode == "fmul":
        return a * b
    if opcode == "fdiv":
        return a / b if b != 0 else float("inf")
    if opcode == "add":
        raw = a + b
    elif opcode == "sub":
        raw = a - b
    elif opcode == "mul":
        raw = a * b
    elif opcode == "sdiv":
        if b == 0:
            raise ZeroDivisionError("division by zero")
        raw = a // b if (a ^ b) >= 0 else -(-a // b)
    elif opcode == "srem":
        if b == 0:
            raise ZeroDivisionError("remainder by zero")
        raw = a % b if (a ^ b) >= 0 else -(-a % b)
    elif opcode == "and":
        raw = a & b
    elif opcode == "or":
        raw = a | b
    elif opcode == "xor":
        raw = a ^ b
    elif opcode == "shl":
        raw = a << (b % ty.width)
    elif opcode == "ashr":
        raw = a >> (b % ty.width)
    elif opcode == "lshr":
        raw = (a & ((1 << ty.width) - 1)) >> (b % ty.width)
    else:
        raise NotImplementedError(f"unknown binary op {opcode}")
    return _wrap_to_width(raw, ty.width)


#: Comparison by predicate, less its signedness/orderedness prefix.
_COMPARE = {
    "eq": operator.eq, "ne": operator.ne, "lt": operator.lt,
    "le": operator.le, "gt": operator.gt, "ge": operator.ge,
}


def eval_icmp(predicate: str, a: int, b: int, width: int) -> int:
    """``icmp predicate a, b`` (0 or 1); unsigned predicates compare the
    operands' ``width``-bit two's-complement patterns."""
    if predicate[0] == "u":
        mask = (1 << width) - 1
        a, b = a & mask, b & mask
    return int(_COMPARE[predicate[-2:]](a, b))


def eval_fcmp(predicate: str, a: float, b: float) -> int:
    """``fcmp predicate a, b`` (0 or 1), ordered predicates only."""
    return int(_COMPARE[predicate[-2:]](a, b))


def eval_cast(opcode: str, value, from_ty: Type, to_ty: Type):
    """``opcode value`` from ``from_ty`` to ``to_ty``; an unknown opcode
    raises :class:`NotImplementedError`."""
    if opcode in ("bitcast", "ptrtoint", "inttoptr"):
        return value
    if opcode == "zext":
        value &= (1 << from_ty.width) - 1
    if opcode in ("trunc", "zext", "sext"):
        return _wrap_to_width(value, to_ty.width)
    if opcode == "sitofp":
        return float(value)
    if opcode == "fptosi":
        return _wrap_to_width(int(value), to_ty.width)
    raise NotImplementedError(f"unknown cast {opcode}")


def const_int(value: int, width: int = 64) -> ConstantInt:
    return ConstantInt(IntType(width), value)


def const_bool(value: bool) -> ConstantInt:
    return ConstantInt(IntType(1), 1 if value else 0)


def const_float(value: float) -> ConstantFloat:
    from .types import DOUBLE

    return ConstantFloat(DOUBLE, value)
