"""IRBuilder — the convenience layer for constructing IR.

Mirrors LLVM's ``IRBuilder``: it holds an insertion point (a basic block and
optionally a position within it) and exposes one method per instruction
kind.  The NOELLE loop builder (LB) abstraction composes on top of this,
targeting loops instead of instructions.
"""

from __future__ import annotations

from .instructions import (
    Alloca,
    BinaryOp,
    Branch,
    Call,
    Cast,
    CondBranch,
    ElemPtr,
    FCmp,
    ICmp,
    Instruction,
    Load,
    Phi,
    Ret,
    Select,
    Store,
    Switch,
    Unreachable,
)
from .module import BasicBlock, Function
from .types import IntType, Type
from .values import ConstantFloat, ConstantInt, Value


class IRBuilder:
    """Stateful instruction factory with an insertion point."""

    def __init__(self, block: BasicBlock | None = None):
        self.block = block
        #: When set, new instructions are inserted before this instruction.
        self.insert_before: Instruction | None = None

    # -- positioning -----------------------------------------------------------
    def position_at_end(self, block: BasicBlock) -> None:
        self.block = block
        self.insert_before = None

    def position_before(self, inst: Instruction) -> None:
        assert inst.parent is not None
        self.block = inst.parent
        self.insert_before = inst

    def position_after(self, inst: Instruction) -> None:
        """Insert after ``inst`` — after its whole phi group when it is a
        phi, so nothing lands between two phis."""
        block = inst.parent
        assert block is not None
        if isinstance(inst, Phi):
            following = block.first_non_phi()
        else:
            rest = block.instructions[inst.index_in_block() + 1:]
            following = rest[0] if rest else None
        if following is None:
            self.position_at_end(block)
        else:
            self.position_before(following)

    def _insert(self, inst: Instruction) -> Instruction:
        assert self.block is not None, "builder has no insertion point"
        if self.insert_before is not None:
            index = self.block.instructions.index(self.insert_before)
            self.block.insert(index, inst)
        else:
            self.block.append(inst)
        return inst

    # -- arithmetic ----------------------------------------------------------
    def binary(self, op: str, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self._insert(BinaryOp(op, lhs, rhs, name))

    def add(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binary("add", lhs, rhs, name)

    def sub(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binary("sub", lhs, rhs, name)

    def mul(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binary("mul", lhs, rhs, name)

    def sdiv(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binary("sdiv", lhs, rhs, name)

    def srem(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binary("srem", lhs, rhs, name)

    def and_(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binary("and", lhs, rhs, name)

    def or_(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binary("or", lhs, rhs, name)

    def xor(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binary("xor", lhs, rhs, name)

    def shl(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binary("shl", lhs, rhs, name)

    def ashr(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binary("ashr", lhs, rhs, name)

    def fadd(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binary("fadd", lhs, rhs, name)

    def fsub(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binary("fsub", lhs, rhs, name)

    def fmul(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binary("fmul", lhs, rhs, name)

    def fdiv(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binary("fdiv", lhs, rhs, name)

    # -- comparisons -----------------------------------------------------------
    def icmp(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> ICmp:
        return self._insert(ICmp(predicate, lhs, rhs, name))

    def fcmp(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> FCmp:
        return self._insert(FCmp(predicate, lhs, rhs, name))

    # -- memory ------------------------------------------------------------------
    def alloca(self, allocated_type: Type, name: str = "") -> Alloca:
        return self._insert(Alloca(allocated_type, name))

    def load(self, ptr: Value, name: str = "") -> Load:
        return self._insert(Load(ptr, name))

    def store(self, value: Value, ptr: Value) -> Store:
        return self._insert(Store(value, ptr))

    def elem_ptr(self, base: Value, indices: list[Value], name: str = "") -> ElemPtr:
        return self._insert(ElemPtr(base, indices, name))

    # -- control flow ----------------------------------------------------------
    def br(self, target: BasicBlock) -> Branch:
        return self._insert(Branch(target))

    def cond_br(
        self, cond: Value, true_block: BasicBlock, false_block: BasicBlock
    ) -> CondBranch:
        return self._insert(CondBranch(cond, true_block, false_block))

    def switch(
        self,
        value: Value,
        default: BasicBlock,
        cases: list[tuple[ConstantInt, BasicBlock]] | None = None,
    ) -> Switch:
        return self._insert(Switch(value, default, cases))

    def ret(self, value: Value | None = None) -> Ret:
        return self._insert(Ret(value))

    def unreachable(self) -> Unreachable:
        return self._insert(Unreachable())

    # -- misc ----------------------------------------------------------------------
    def phi(self, ty: Type, name: str = "") -> Phi:
        assert self.block is not None
        # Below the block's existing phis, above everything else.
        index = sum(1 for _ in self.block.phis())
        return self.block.insert(index, Phi(ty, name))

    def select(
        self, cond: Value, true_value: Value, false_value: Value, name: str = ""
    ) -> Select:
        return self._insert(Select(cond, true_value, false_value, name))

    def cast(self, op: str, value: Value, to_type: Type, name: str = "") -> Cast:
        return self._insert(Cast(op, value, to_type, name))

    def call(self, callee: Value, args: list[Value], name: str = "") -> Call:
        return self._insert(Call(callee, args, name))

    # -- constants (no insertion) -------------------------------------------------
    @staticmethod
    def const_int(value: int, width: int = 64) -> ConstantInt:
        return ConstantInt(IntType(width), value)

    @staticmethod
    def const_bool(value: bool) -> ConstantInt:
        return ConstantInt(IntType(1), 1 if value else 0)

    @staticmethod
    def const_float(value: float) -> ConstantFloat:
        from .types import DOUBLE

        return ConstantFloat(DOUBLE, value)


def build_function(fn: Function, entry_name: str = "entry") -> tuple[IRBuilder, BasicBlock]:
    """Create an entry block for ``fn`` and return a positioned builder."""
    entry = fn.add_block(entry_name)
    builder = IRBuilder(entry)
    return builder, entry
