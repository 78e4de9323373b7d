"""Module, function, and basic-block containers for the repro IR.

A :class:`Module` is the whole-program unit (what ``noelle-whole-IR``
produces); it owns global variables, named struct types, and functions.
Functions own basic blocks; blocks own instructions.  Name uniquing is
handled per function so the printer always emits well-formed, re-parseable
IR.
"""

from __future__ import annotations

from typing import Iterator

from .instructions import Instruction, Phi, TerminatorInst
from .types import LABEL, FunctionType, PointerType, StructType, Type
from .values import Argument, Constant, GlobalValue, GlobalVariable, Value


class BasicBlock(Value):
    """A straight-line sequence of instructions ending in a terminator."""

    def __init__(self, name: str = "", parent: "Function | None" = None):
        super().__init__(LABEL, name)
        self.parent = parent
        self.instructions: list[Instruction] = []

    # -- contents -----------------------------------------------------------
    @property
    def terminator(self) -> TerminatorInst | None:
        if self.instructions and isinstance(self.instructions[-1], TerminatorInst):
            return self.instructions[-1]
        return None

    def append(self, inst: Instruction) -> Instruction:
        return self.insert(len(self.instructions), inst)

    def insert(self, index: int, inst: Instruction) -> Instruction:
        """Place ``inst`` at ``index`` (0 <= index <= len).  Phis stay
        grouped at the top of the block: a phi goes only below a phi, a
        non-phi never above one."""
        insts = self.instructions
        if isinstance(inst, Phi):
            misplaced = index > 0 and not isinstance(insts[index - 1], Phi)
        else:
            misplaced = index < len(insts) and isinstance(insts[index], Phi)
        if misplaced:
            raise ValueError(
                f"{inst.opcode} at index {index} of %{self.name} would "
                "split the block's phi group"
            )
        inst.parent = self
        self.instructions.insert(index, inst)
        if self.parent is not None:
            self.parent.assign_name(inst)
        return inst

    def phis(self) -> Iterator[Phi]:
        for inst in self.instructions:
            if isinstance(inst, Phi):
                yield inst
            else:
                break

    def first_non_phi(self) -> Instruction | None:
        for inst in self.instructions:
            if not isinstance(inst, Phi):
                return inst
        return None

    # -- CFG ------------------------------------------------------------------
    def successors(self) -> list["BasicBlock"]:
        term = self.terminator
        return term.successors() if term is not None else []

    def predecessors(self) -> list["BasicBlock"]:
        preds = []
        seen: set[int] = set()
        for use in self.uses:
            user = use.user
            if isinstance(user, TerminatorInst) and user.parent is not None:
                if id(user.parent) not in seen:
                    seen.add(id(user.parent))
                    preds.append(user.parent)
        return preds

    def remove_from_parent(self) -> None:
        assert self.parent is not None
        self.parent.blocks.remove(self)
        self.parent = None

    def erase(self) -> None:
        """Remove the block and drop all of its instructions' operand uses."""
        for inst in list(self.instructions):
            inst.erase_from_parent()
        self.remove_from_parent()

    def ref(self) -> str:
        return f"%{self.name}"

    def __str__(self) -> str:
        lines = [f"{self.name}:"]
        lines.extend(f"  {inst}" for inst in self.instructions)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BasicBlock %{self.name} ({len(self.instructions)} insts)>"


class Function(GlobalValue):
    """A function definition or declaration.

    As a value, a function has pointer-to-function type (as in LLVM), so it
    can be stored, passed, and called indirectly — which is what NOELLE's
    complete call graph must resolve.
    """

    def __init__(
        self,
        name: str,
        function_type: FunctionType,
        arg_names: list[str] | None = None,
        parent: "Module | None" = None,
    ):
        super().__init__(PointerType(function_type), name)
        self.function_type = function_type
        self.parent = parent
        self.blocks: list[BasicBlock] = []
        self.args: list[Argument] = []
        self.metadata: dict[str, object] = {}
        #: Attributes such as "readonly", "noinline", "pure".
        self.attributes: set[str] = set()
        self._name_counter = 0
        self._used_names: set[str] = set()
        names = arg_names or [f"arg{i}" for i in range(len(function_type.params))]
        for index, (ty, arg_name) in enumerate(zip(function_type.params, names)):
            arg = Argument(ty, arg_name, self, index)
            self.args.append(arg)
            self._used_names.add(arg_name)

    # -- declaration vs definition -------------------------------------------
    def is_declaration(self) -> bool:
        return not self.blocks

    @property
    def return_type(self) -> Type:
        return self.function_type.ret

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"function @{self.name} has no body")
        return self.blocks[0]

    # -- block management -------------------------------------------------------
    def add_block(self, name: str = "bb") -> BasicBlock:
        block = BasicBlock(self._unique_name(name), self)
        self.blocks.append(block)
        return block

    def insert_block_after(self, after: BasicBlock, name: str = "bb") -> BasicBlock:
        block = BasicBlock(self._unique_name(name), self)
        self.blocks.insert(self.blocks.index(after) + 1, block)
        return block

    def adopt_block(self, block: BasicBlock) -> BasicBlock:
        """Attach an existing detached block (used by loop transformations)."""
        block.parent = self
        block.name = self._unique_name(block.name or "bb")
        self.blocks.append(block)
        for inst in block.instructions:
            self.assign_name(inst)
        return block

    # -- naming ------------------------------------------------------------------
    def _unique_name(self, hint: str) -> str:
        if hint and hint not in self._used_names:
            self._used_names.add(hint)
            return hint
        while True:
            candidate = f"{hint or 'v'}{self._name_counter}"
            self._name_counter += 1
            if candidate not in self._used_names:
                self._used_names.add(candidate)
                return candidate

    def assign_name(self, inst: Instruction) -> None:
        """Give an instruction a unique name within this function."""
        if inst.type.is_void():
            return
        inst.name = self._unique_name(inst.name or "v")

    # -- iteration ----------------------------------------------------------------
    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.instructions

    def num_instructions(self) -> int:
        return sum(len(b.instructions) for b in self.blocks)

    def __str__(self) -> str:
        from .printer import print_function

        return print_function(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "declare" if self.is_declaration() else "define"
        return f"<Function {kind} @{self.name}>"


class Module:
    """A whole program: globals, named structs, and functions."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.functions: dict[str, Function] = {}
        self.globals: dict[str, GlobalVariable] = {}
        self.structs: dict[str, StructType] = {}
        #: Module-level metadata (profiles, embedded PDG, link options, ...).
        self.metadata: dict[str, object] = {}
        #: The compiled-code cache of :mod:`repro.interp.engine`, once
        #: the module has run on it.  Owned here so it dies with the
        #: module; everything else goes through ``engine_for(module)``.
        self.engine = None

    # -- functions ---------------------------------------------------------------
    def add_function(
        self,
        name: str,
        function_type: FunctionType,
        arg_names: list[str] | None = None,
    ) -> Function:
        if name in self.functions:
            raise ValueError(f"function @{name} already exists")
        fn = Function(name, function_type, arg_names, self)
        self.functions[name] = fn
        return fn

    def get_function(self, name: str) -> Function:
        fn = self.functions.get(name)
        if fn is None:
            raise KeyError(f"no function named @{name}")
        return fn

    def declare_function(
        self, name: str, function_type: FunctionType
    ) -> Function:
        """Get-or-create an external declaration (e.g. ``print``/``malloc``)."""
        existing = self.functions.get(name)
        if existing is not None:
            if existing.function_type != function_type:
                raise TypeError(
                    f"conflicting declaration for @{name}: "
                    f"{existing.function_type} vs {function_type}"
                )
            return existing
        return self.add_function(name, function_type)

    def remove_function(self, name: str) -> None:
        fn = self.functions.pop(name)
        for block in list(fn.blocks):
            block.erase()

    def defined_functions(self) -> Iterator[Function]:
        for fn in self.functions.values():
            if not fn.is_declaration():
                yield fn

    # -- globals -------------------------------------------------------------------
    def add_global(
        self,
        name: str,
        allocated_type: Type,
        initializer: Constant | None = None,
        constant: bool = False,
    ) -> GlobalVariable:
        if name in self.globals:
            raise ValueError(f"global @{name} already exists")
        gv = GlobalVariable(allocated_type, name, initializer, constant)
        self.globals[name] = gv
        return gv

    def get_global(self, name: str) -> GlobalVariable:
        gv = self.globals.get(name)
        if gv is None:
            raise KeyError(f"no global named @{name}")
        return gv

    # -- structs -------------------------------------------------------------------
    def add_struct(self, name: str, fields: list[Type] | None = None) -> StructType:
        if name in self.structs:
            raise ValueError(f"struct %{name} already exists")
        st = StructType(name, fields)
        self.structs[name] = st
        return st

    # -- stats -------------------------------------------------------------------
    def num_instructions(self) -> int:
        return sum(fn.num_instructions() for fn in self.functions.values())

    def __str__(self) -> str:
        from .printer import print_module

        return print_module(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Module {self.name} ({len(self.functions)} functions)>"
