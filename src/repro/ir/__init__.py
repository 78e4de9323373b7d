"""repro.ir — the typed SSA intermediate representation.

This package is the repository's stand-in for LLVM IR: a typed SSA IR with
modules, functions, basic blocks, phi nodes, typed pointers, and full
def-use chains, plus a builder, verifier, textual printer/parser, binary
codec, and a module linker.  Everything above it (analyses, the NOELLE
layer, the custom tools) consumes only this API.  The package exports
what reading, printing and verifying a module needs; the builder
(:mod:`repro.ir.builder`) and the linker (:mod:`repro.ir.linker`) are
imported from their modules, by the code that constructs or links IR.
"""

from .binio import (
    BinFormatError,
    BinTruncatedError,
    BinVersionError,
    is_binary_ir,
    read_module,
    read_module_file,
)
from .instructions import (
    Alloca,
    BinaryOp,
    Branch,
    Call,
    Cast,
    CmpInst,
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
    TerminatorInst,
    Unreachable,
)
from .intrinsics import INTRINSICS, declare_intrinsic, is_intrinsic
from .module import BasicBlock, Function, Module
from .parser import ParseError, parse_module
from .printer import print_function, print_module
from .types import (
    DOUBLE,
    I1,
    I8,
    I32,
    I64,
    LABEL,
    VOID,
    ArrayType,
    FloatType,
    FunctionType,
    IntType,
    PointerType,
    StructType,
    Type,
    VoidType,
    pointer_to,
)
from .values import (
    Argument,
    Constant,
    ConstantArray,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    ConstantString,
    GlobalValue,
    GlobalVariable,
    UndefValue,
    Use,
    User,
    Value,
    const_bool,
    const_float,
    const_int,
    wrap_int,
)
from .verifier import VerificationError, verify_function, verify_module

__all__ = [
    "BinFormatError",
    "BinTruncatedError",
    "BinVersionError",
    "is_binary_ir",
    "read_module",
    "read_module_file",
    "write_module",
    "write_module_file",
    "Alloca",
    "BinaryOp",
    "Branch",
    "Call",
    "Cast",
    "CmpInst",
    "CondBranch",
    "ElemPtr",
    "FCmp",
    "ICmp",
    "Instruction",
    "Load",
    "Phi",
    "Ret",
    "Select",
    "Store",
    "Switch",
    "TerminatorInst",
    "Unreachable",
    "INTRINSICS",
    "declare_intrinsic",
    "is_intrinsic",
    "BasicBlock",
    "Function",
    "Module",
    "ParseError",
    "parse_module",
    "print_function",
    "print_module",
    "DOUBLE",
    "I1",
    "I8",
    "I32",
    "I64",
    "LABEL",
    "VOID",
    "ArrayType",
    "FloatType",
    "FunctionType",
    "IntType",
    "PointerType",
    "StructType",
    "Type",
    "VoidType",
    "pointer_to",
    "Argument",
    "Constant",
    "ConstantArray",
    "ConstantFloat",
    "ConstantInt",
    "ConstantNull",
    "ConstantString",
    "GlobalValue",
    "GlobalVariable",
    "UndefValue",
    "Use",
    "User",
    "Value",
    "const_bool",
    "const_float",
    "const_int",
    "wrap_int",
    "VerificationError",
    "verify_function",
    "verify_module",
]


def __getattr__(name: str):
    """``write_module`` / ``write_module_file``: the ``.nir`` writer
    loads on first use, so a process that only reads ``.nir`` never
    compiles it."""
    if name in ("write_module", "write_module_file"):
        from . import binwrite

        value = globals()[name] = getattr(binwrite, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
