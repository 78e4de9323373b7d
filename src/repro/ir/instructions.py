"""Instruction set of the repro IR.

The instruction set mirrors the subset of LLVM IR that the NOELLE layer and
the ten custom tools observe: integer/float arithmetic, comparisons, memory
operations (``alloca``/``load``/``store``/``elem_ptr``), control flow
(``br``/``cond_br``/``switch``/``ret``/``unreachable``), ``phi`` nodes,
``select``, casts, and direct/indirect ``call``.

Instructions are :class:`~repro.ir.values.User` values: their operands are
tracked through use lists, so def-use chains are always up to date.  Basic
blocks appear as operands of terminators (with :data:`~repro.ir.types.LABEL`
type), so CFG edges can be rewritten with the same machinery as data
operands.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from .types import (
    LABEL,
    VOID,
    ArrayType,
    FunctionType,
    IntType,
    PointerType,
    StructType,
    Type,
)
from .values import ConstantInt, User, Value

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from .module import BasicBlock, Function


#: Integer binary opcodes and whether they are commutative.
INT_BINARY_OPS = {
    "add": True,
    "sub": False,
    "mul": True,
    "sdiv": False,
    "srem": False,
    "and": True,
    "or": True,
    "xor": True,
    "shl": False,
    "ashr": False,
    "lshr": False,
}

#: Float binary opcodes.
FLOAT_BINARY_OPS = {"fadd": True, "fsub": False, "fmul": True, "fdiv": False}

#: Signed integer comparison predicates.
ICMP_PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge")

#: Ordered float comparison predicates.
FCMP_PREDICATES = ("oeq", "one", "olt", "ole", "ogt", "oge")

#: Cast opcodes.
CAST_OPS = ("trunc", "zext", "sext", "bitcast", "ptrtoint", "inttoptr", "sitofp", "fptosi")

#: Swaps a comparison predicate when its operands are swapped.
SWAPPED_PREDICATE = {
    "eq": "eq",
    "ne": "ne",
    "slt": "sgt",
    "sle": "sge",
    "sgt": "slt",
    "sge": "sle",
    "ult": "ugt",
    "ule": "uge",
    "ugt": "ult",
    "uge": "ule",
    "oeq": "oeq",
    "one": "one",
    "olt": "ogt",
    "ole": "oge",
    "ogt": "olt",
    "oge": "ole",
}


class Instruction(User):
    """Base class for all IR instructions."""

    #: Short mnemonic; subclasses override.
    opcode: str = "<abstract>"

    def __init__(self, ty: Type, name: str = ""):
        super().__init__(ty, name)
        self.parent: "BasicBlock | None" = None

    # -- classification ----------------------------------------------------
    def is_terminator(self) -> bool:
        return isinstance(self, TerminatorInst)

    def may_read_memory(self) -> bool:
        return False

    def may_write_memory(self) -> bool:
        return False

    def touches_memory(self) -> bool:
        return self.may_read_memory() or self.may_write_memory()

    def has_side_effects(self) -> bool:
        """True when the instruction cannot be removed even if unused."""
        return self.may_write_memory() or self.is_terminator()

    # -- structural edits --------------------------------------------------
    def function(self) -> "Function":
        assert self.parent is not None, "detached instruction"
        assert self.parent.parent is not None
        return self.parent.parent

    def erase_from_parent(self) -> None:
        """Unlink from the containing block and drop operand uses."""
        assert self.parent is not None, "instruction is not in a block"
        self.parent.instructions.remove(self)
        self.parent = None
        self.drop_all_operands()

    def move_before(self, other: "Instruction") -> None:
        """Move this instruction immediately before ``other``."""
        assert other.parent is not None
        if self.parent is not None:
            self.parent.instructions.remove(self)
        block = other.parent
        block.instructions.insert(block.instructions.index(other), self)
        self.parent = block

    def move_to_end(self, block: "BasicBlock") -> None:
        """Move this instruction to the end of ``block`` (before terminator)."""
        if self.parent is not None:
            self.parent.instructions.remove(self)
        term = block.terminator
        if term is not None:
            block.instructions.insert(block.instructions.index(term), self)
        else:
            block.instructions.append(self)
        self.parent = block

    def index_in_block(self) -> int:
        assert self.parent is not None
        return self.parent.instructions.index(self)

    # -- printing ----------------------------------------------------------
    def operand_refs(self) -> str:
        return ", ".join(f"{op.type} {op.ref()}" for op in self.operands)

    def __str__(self) -> str:
        if self.type.is_void():
            return f"{self.opcode} {self.operand_refs()}"
        return f"%{self.name} = {self.opcode} {self.operand_refs()}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}: {self}>"


class TerminatorInst(Instruction):
    """Base class for block terminators."""

    def successors(self) -> list["BasicBlock"]:
        return [op for op in self.operands if op.type == LABEL]

    def replace_successor(self, old: "BasicBlock", new: "BasicBlock") -> None:
        for i, op in enumerate(self.operands):
            if op is old:
                self.set_operand(i, new)


class BinaryOp(Instruction):
    """Two-operand arithmetic/logic (``add``, ``fmul``, ``and``, ...)."""

    def __init__(self, op: str, lhs: Value, rhs: Value, name: str = ""):
        if op not in INT_BINARY_OPS and op not in FLOAT_BINARY_OPS:
            raise ValueError(f"unknown binary opcode {op!r}")
        super().__init__(lhs.type, name)
        self.opcode = op
        self._add_operand(lhs)
        self._add_operand(rhs)

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]

    def is_commutative(self) -> bool:
        return INT_BINARY_OPS.get(self.opcode, False) or FLOAT_BINARY_OPS.get(
            self.opcode, False
        )


class CmpInst(Instruction):
    """Base of integer and float comparisons; result is ``i1``."""

    def __init__(self, opcode: str, predicate: str, lhs: Value, rhs: Value, name: str):
        super().__init__(IntType(1), name)
        self.opcode = opcode
        self.predicate = predicate
        self._add_operand(lhs)
        self._add_operand(rhs)

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]

    def swap_operands(self) -> None:
        """Swap operands, adjusting the predicate to preserve semantics.

        Used by the Time-Squeezer custom tool, which canonicalizes compares
        for timing-speculative hardware.
        """
        lhs, rhs = self.lhs, self.rhs
        self.set_operand(0, rhs)
        self.set_operand(1, lhs)
        self.predicate = SWAPPED_PREDICATE[self.predicate]

    def __str__(self) -> str:
        return (
            f"%{self.name} = {self.opcode} {self.predicate} "
            f"{self.lhs.type} {self.lhs.ref()}, {self.rhs.type} {self.rhs.ref()}"
        )


class ICmp(CmpInst):
    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = ""):
        if predicate not in ICMP_PREDICATES:
            raise ValueError(f"unknown icmp predicate {predicate!r}")
        super().__init__("icmp", predicate, lhs, rhs, name)


class FCmp(CmpInst):
    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = ""):
        if predicate not in FCMP_PREDICATES:
            raise ValueError(f"unknown fcmp predicate {predicate!r}")
        super().__init__("fcmp", predicate, lhs, rhs, name)


class Alloca(Instruction):
    """Stack allocation; yields a pointer to ``allocated_type`` storage."""

    opcode = "alloca"

    def __init__(self, allocated_type: Type, name: str = ""):
        super().__init__(PointerType(allocated_type), name)
        self.allocated_type = allocated_type

    def __str__(self) -> str:
        return f"%{self.name} = alloca {self.allocated_type}"


class Load(Instruction):
    """Read a scalar from memory."""

    opcode = "load"

    def __init__(self, ptr: Value, name: str = ""):
        if not ptr.type.is_pointer():
            raise TypeError(f"load requires a pointer operand, got {ptr.type}")
        super().__init__(ptr.type.pointee, name)
        self._add_operand(ptr)

    @property
    def pointer(self) -> Value:
        return self.operands[0]

    def may_read_memory(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"%{self.name} = load {self.type}, {self.pointer.type} {self.pointer.ref()}"


class Store(Instruction):
    """Write a scalar to memory."""

    opcode = "store"

    def __init__(self, value: Value, ptr: Value):
        if not ptr.type.is_pointer():
            raise TypeError(f"store requires a pointer operand, got {ptr.type}")
        super().__init__(VOID)
        self._add_operand(value)
        self._add_operand(ptr)

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def pointer(self) -> Value:
        return self.operands[1]

    def may_write_memory(self) -> bool:
        return True

    def __str__(self) -> str:
        return (
            f"store {self.value.type} {self.value.ref()}, "
            f"{self.pointer.type} {self.pointer.ref()}"
        )


class ElemPtr(Instruction):
    """Pointer arithmetic (LLVM ``getelementptr``).

    The first index scales by the size of the pointee; later indices step
    into arrays and structs.  Struct indices must be constant integers so the
    result type is computable.
    """

    opcode = "elem_ptr"

    def __init__(self, base: Value, indices: list[Value], name: str = ""):
        if not base.type.is_pointer():
            raise TypeError(f"elem_ptr requires a pointer base, got {base.type}")
        if not indices:
            raise ValueError("elem_ptr requires at least one index")
        result = _elem_ptr_result_type(base.type, indices)
        super().__init__(result, name)
        self._add_operand(base)
        for index in indices:
            self._add_operand(index)

    @property
    def base(self) -> Value:
        return self.operands[0]

    @property
    def indices(self) -> list[Value]:
        return self.operands[1:]

    def has_all_zero_indices(self) -> bool:
        return all(
            isinstance(i, ConstantInt) and i.value == 0 for i in self.indices
        )

    def __str__(self) -> str:
        parts = [f"{self.base.type} {self.base.ref()}"]
        parts.extend(f"{i.type} {i.ref()}" for i in self.indices)
        return f"%{self.name} = elem_ptr {', '.join(parts)}"


def _elem_ptr_result_type(base: PointerType, indices: list[Value]) -> PointerType:
    current: Type = base.pointee
    for index in indices[1:]:
        if isinstance(current, ArrayType):
            current = current.element
        elif isinstance(current, StructType):
            if not isinstance(index, ConstantInt):
                raise TypeError("struct elem_ptr index must be a constant")
            current = current.fields[index.value]
        else:
            raise TypeError(f"cannot index into {current}")
    return PointerType(current)


def _callee_function_type(callee: Value) -> "FunctionType":
    """Extract the :class:`FunctionType` of a call target.

    Accepts a direct :class:`~repro.ir.module.Function` (whose value type is
    a pointer to its function type) or any value of function-pointer type.
    """
    ty = callee.type
    if ty.is_pointer() and ty.pointee.is_function():
        return ty.pointee
    raise TypeError(f"call target {callee.ref()} is not a function pointer: {ty}")


class Call(Instruction):
    """Direct or indirect function call.

    Operand 0 is the callee: a :class:`~repro.ir.module.Function` for direct
    calls, or any value of function-pointer type for indirect calls — the
    case NOELLE's complete call graph resolves via the PDG/points-to layer.
    """

    opcode = "call"

    def __init__(self, callee: Value, args: list[Value], name: str = ""):
        fnty = _callee_function_type(callee)
        if not fnty.vararg and len(args) != len(fnty.params):
            raise TypeError(
                f"call to {callee.ref()} expects {len(fnty.params)} args, got {len(args)}"
            )
        super().__init__(fnty.ret, name)
        self._add_operand(callee)
        for arg in args:
            self._add_operand(arg)

    @property
    def callee(self) -> Value:
        return self.operands[0]

    @property
    def args(self) -> list[Value]:
        return self.operands[1:]

    def is_indirect(self) -> bool:
        from .module import Function

        return not isinstance(self.callee, Function)

    def called_function(self) -> "Function | None":
        """The statically known callee, or None for indirect calls."""
        from .module import Function

        callee = self.callee
        return callee if isinstance(callee, Function) else None

    def may_read_memory(self) -> bool:
        return True

    def may_write_memory(self) -> bool:
        return True

    def has_side_effects(self) -> bool:
        return True

    def __str__(self) -> str:
        args = ", ".join(f"{a.type} {a.ref()}" for a in self.args)
        call = f"call {self.type} {self.callee.ref()}({args})"
        if self.type.is_void():
            return call
        return f"%{self.name} = {call}"


class Phi(Instruction):
    """SSA phi node; operands alternate (value, predecessor-block)."""

    opcode = "phi"

    def __init__(self, ty: Type, name: str = ""):
        super().__init__(ty, name)

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        self._add_operand(value)
        self._add_operand(block)

    def incoming(self) -> Iterator[tuple[Value, "BasicBlock"]]:
        for i in range(0, len(self.operands), 2):
            yield self.operands[i], self.operands[i + 1]

    def incoming_value_for(self, block: "BasicBlock") -> Value:
        for value, pred in self.incoming():
            if pred is block:
                return value
        raise KeyError(f"phi {self.ref()} has no incoming edge from {block.name}")

    def set_incoming_value_for(self, block: "BasicBlock", value: Value) -> None:
        for i in range(0, len(self.operands), 2):
            if self.operands[i + 1] is block:
                self.set_operand(i, value)
                return
        raise KeyError(f"phi {self.ref()} has no incoming edge from {block.name}")

    def remove_incoming(self, block: "BasicBlock") -> None:
        pairs = [(v, b) for v, b in self.incoming() if b is not block]
        self.drop_all_operands()
        for value, pred in pairs:
            self.add_incoming(value, pred)

    def __str__(self) -> str:
        pairs = ", ".join(f"[ {v.ref()}, %{b.name} ]" for v, b in self.incoming())
        return f"%{self.name} = phi {self.type} {pairs}"


class Select(Instruction):
    """``select i1 %c, T %a, T %b`` — branchless conditional."""

    opcode = "select"

    def __init__(self, cond: Value, true_value: Value, false_value: Value, name: str = ""):
        super().__init__(true_value.type, name)
        self._add_operand(cond)
        self._add_operand(true_value)
        self._add_operand(false_value)

    @property
    def condition(self) -> Value:
        return self.operands[0]

    @property
    def true_value(self) -> Value:
        return self.operands[1]

    @property
    def false_value(self) -> Value:
        return self.operands[2]


class Cast(Instruction):
    """Type conversion (``trunc``/``zext``/``sext``/``bitcast``/...)."""

    def __init__(self, op: str, value: Value, to_type: Type, name: str = ""):
        if op not in CAST_OPS:
            raise ValueError(f"unknown cast opcode {op!r}")
        super().__init__(to_type, name)
        self.opcode = op
        self._add_operand(value)

    @property
    def value(self) -> Value:
        return self.operands[0]

    def __str__(self) -> str:
        return (
            f"%{self.name} = {self.opcode} {self.value.type} "
            f"{self.value.ref()} to {self.type}"
        )


class Branch(TerminatorInst):
    """Unconditional branch."""

    opcode = "br"

    def __init__(self, target: "BasicBlock"):
        super().__init__(VOID)
        self._add_operand(target)

    @property
    def target(self) -> "BasicBlock":
        return self.operands[0]

    def __str__(self) -> str:
        return f"br label %{self.target.name}"


class CondBranch(TerminatorInst):
    """Two-way conditional branch."""

    opcode = "cond_br"

    def __init__(self, cond: Value, true_block: "BasicBlock", false_block: "BasicBlock"):
        super().__init__(VOID)
        self._add_operand(cond)
        self._add_operand(true_block)
        self._add_operand(false_block)

    @property
    def condition(self) -> Value:
        return self.operands[0]

    @property
    def true_block(self) -> "BasicBlock":
        return self.operands[1]

    @property
    def false_block(self) -> "BasicBlock":
        return self.operands[2]

    def __str__(self) -> str:
        return (
            f"br i1 {self.condition.ref()}, label %{self.true_block.name}, "
            f"label %{self.false_block.name}"
        )


class Switch(TerminatorInst):
    """Multi-way branch on an integer value."""

    opcode = "switch"

    def __init__(
        self,
        value: Value,
        default: "BasicBlock",
        cases: list[tuple[ConstantInt, "BasicBlock"]] | None = None,
    ):
        super().__init__(VOID)
        self._add_operand(value)
        self._add_operand(default)
        for const, block in cases or []:
            self.add_case(const, block)

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def default(self) -> "BasicBlock":
        return self.operands[1]

    def add_case(self, const: ConstantInt, block: "BasicBlock") -> None:
        self._add_operand(const)
        self._add_operand(block)

    def cases(self) -> Iterator[tuple[ConstantInt, "BasicBlock"]]:
        for i in range(2, len(self.operands), 2):
            yield self.operands[i], self.operands[i + 1]

    def __str__(self) -> str:
        cases = " ".join(
            f"{c.type} {c.ref()}, label %{b.name}" for c, b in self.cases()
        )
        return (
            f"switch {self.value.type} {self.value.ref()}, "
            f"label %{self.default.name} [{cases}]"
        )


class Ret(TerminatorInst):
    """Return, optionally with a value."""

    opcode = "ret"

    def __init__(self, value: Value | None = None):
        super().__init__(VOID)
        if value is not None:
            self._add_operand(value)

    @property
    def value(self) -> Value | None:
        return self.operands[0] if self.operands else None

    def __str__(self) -> str:
        if self.value is None:
            return "ret void"
        return f"ret {self.value.type} {self.value.ref()}"


class Unreachable(TerminatorInst):
    """Marks a point the program can never reach."""

    opcode = "unreachable"

    def __init__(self) -> None:
        super().__init__(VOID)

    def __str__(self) -> str:
        return "unreachable"
