"""Binary serialization of the repro IR (the ``.nir`` format).

A compact, versioned binary form of :class:`~repro.ir.module.Module`,
pairing the textual IR with a fast interchange format the way production
compiler infrastructures do (LLVM bitcode, MLIR bytecode).  The encoding
is designed for cheap reads:

* **versioned header** — a 4-byte magic plus a format-version varint; a
  reader refuses files from a different format generation with a
  structured :class:`BinVersionError` instead of misparsing them.
* **string interning** — every identifier (function, block, value,
  struct, metadata key) is written once into a string table and
  referenced by varint index.
* **type interning** — types are structurally deduplicated into a type
  table; compound types reference earlier entries, and named structs
  reference the module's struct declarations nominally (bodies are
  written once, so recursive struct types round-trip).
* **varint instruction streams** — each instruction is one opcode tag
  followed by varint-encoded operands (value indices, interned type and
  string references, zigzag integers); per-function value/type tables
  let the reader type forward references without a second pass, using
  the same placeholder-then-patch scheme as the text parser.

The round-trip contract (enforced by ``tests/ir/test_binio.py``) is that
``read(write(m))`` prints byte-identically to ``parse(print(m))`` — and
beyond the printer, the reader restores naming state (``_used_names``,
``_name_counter``) and the module's and each function's metadata exactly
(instructions carry none), so a module hydrated from ``.nir`` behaves
identically to the one that was written under every later transform.

Errors are structured: :class:`BinFormatError` (corrupt or malformed
content), :class:`BinTruncatedError` (unexpected end of data), and
:class:`BinVersionError` (wrong magic or unsupported version).
"""

from __future__ import annotations

import struct

from ..perf import gc_paused
from .instructions import (
    CAST_OPS,
    FCMP_PREDICATES,
    FLOAT_BINARY_OPS,
    ICMP_PREDICATES,
    INT_BINARY_OPS,
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
from .module import BasicBlock, Function, Module
from .types import (
    ArrayType,
    FloatType,
    FunctionType,
    IntType,
    LabelType,
    PointerType,
    StructType,
    Type,
    VoidType,
)
from .values import (
    ConstantArray,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    ConstantString,
    GlobalVariable,
    UndefValue,
    Value,
)

#: First four bytes of every ``.nir`` file.
MAGIC = b"\x7fNIR"

#: Bump on any incompatible change to the encoding below.  Version 2
#: dropped version 1's per-function instruction-metadata section.
FORMAT_VERSION = 2

#: Canonical file extension for the binary form.
EXTENSION = ".nir"


class BinFormatError(Exception):
    """Malformed or corrupt binary IR content."""


class BinTruncatedError(BinFormatError):
    """The data ended in the middle of a record."""


class BinVersionError(BinFormatError):
    """Wrong magic bytes or an unsupported format version."""


# Stable opcode orderings, frozen per FORMAT_VERSION.
_BIN_OPCODES = tuple(INT_BINARY_OPS) + tuple(FLOAT_BINARY_OPS)
_BIN_OPCODE_INDEX = {op: i for i, op in enumerate(_BIN_OPCODES)}
_ICMP_INDEX = {p: i for i, p in enumerate(ICMP_PREDICATES)}
_FCMP_INDEX = {p: i for i, p in enumerate(FCMP_PREDICATES)}
_CAST_INDEX = {op: i for i, op in enumerate(CAST_OPS)}

# Type table record tags.
_TY_INT, _TY_FLOAT, _TY_VOID, _TY_LABEL = 0, 1, 2, 3
_TY_PTR, _TY_ARRAY, _TY_STRUCT, _TY_FN = 4, 5, 6, 7

# Operand/constant record tags.
_OP_VALUE, _OP_INT, _OP_FLOAT, _OP_NULL = 0, 1, 2, 3
_OP_UNDEF, _OP_GLOBAL, _OP_FUNCTION, _OP_STRING, _OP_ARRAY = 4, 5, 6, 7, 8

# Instruction stream tags.
_I_BINARY, _I_ICMP, _I_FCMP, _I_ALLOCA, _I_LOAD, _I_STORE = 0, 1, 2, 3, 4, 5
_I_ELEMPTR, _I_CALL, _I_PHI, _I_SELECT, _I_CAST = 6, 7, 8, 9, 10
_I_BR, _I_CONDBR, _I_SWITCH, _I_RET, _I_UNREACHABLE = 11, 12, 13, 14, 15

# Metadata value tags.
_M_NONE, _M_FALSE, _M_TRUE, _M_INT, _M_FLOAT = 0, 1, 2, 3, 4
_M_STR, _M_BYTES, _M_LIST, _M_TUPLE, _M_DICT = 5, 6, 7, 8, 9

_PACK_F64 = struct.Struct("<d")


def _zigzag(n: int) -> int:
    return n * 2 if n >= 0 else -n * 2 - 1


def _unzigzag(z: int) -> int:
    return z // 2 if z % 2 == 0 else -(z // 2) - 1


# -- writer -------------------------------------------------------------------


class _Writer:
    """Serializes one module; strings/types are interned on demand."""

    def __init__(self, module: Module):
        self.module = module
        self._strings: dict[str, int] = {}
        self._string_list: list[str] = []
        self._types: dict[tuple, int] = {}
        self._type_records: list[tuple] = []

    # -- interning ----------------------------------------------------------

    def _string(self, text: str) -> int:
        index = self._strings.get(text)
        if index is None:
            index = len(self._string_list)
            self._strings[text] = index
            self._string_list.append(text)
        return index

    def _type(self, ty: Type) -> int:
        key = self._type_key(ty)
        index = self._types.get(key)
        if index is not None:
            return index
        record = self._type_record(ty)
        # Interning compound operand types first means every reference in
        # ``record`` points at an earlier table entry; re-check in case a
        # recursive struct resolved the key while building the record.
        index = self._types.get(key)
        if index is None:
            index = len(self._type_records)
            self._types[key] = index
            self._type_records.append(record)
        return index

    def _type_key(self, ty: Type) -> tuple:
        if isinstance(ty, IntType):
            return ("i", ty.width)
        if isinstance(ty, FloatType):
            return ("f",)
        if isinstance(ty, VoidType):
            return ("v",)
        if isinstance(ty, LabelType):
            return ("l",)
        if isinstance(ty, PointerType):
            return ("p", self._type_key(ty.pointee))
        if isinstance(ty, ArrayType):
            return ("a", self._type_key(ty.element), ty.count)
        if isinstance(ty, StructType):
            return ("s", ty.name)
        if isinstance(ty, FunctionType):
            return (
                "fn",
                self._type_key(ty.ret),
                tuple(self._type_key(p) for p in ty.params),
                ty.vararg,
            )
        raise BinFormatError(f"cannot serialize type {ty!r}")

    def _type_record(self, ty: Type) -> tuple:
        if isinstance(ty, IntType):
            return (_TY_INT, ty.width)
        if isinstance(ty, FloatType):
            return (_TY_FLOAT,)
        if isinstance(ty, VoidType):
            return (_TY_VOID,)
        if isinstance(ty, LabelType):
            return (_TY_LABEL,)
        if isinstance(ty, PointerType):
            return (_TY_PTR, self._type(ty.pointee))
        if isinstance(ty, ArrayType):
            return (_TY_ARRAY, self._type(ty.element), ty.count)
        if isinstance(ty, StructType):
            if ty.name not in self.module.structs:
                raise BinFormatError(
                    f"struct %{ty.name} is used but not declared in "
                    f"module {self.module.name!r}"
                )
            return (_TY_STRUCT, self._string(ty.name))
        if isinstance(ty, FunctionType):
            params = tuple(self._type(p) for p in ty.params)
            return (_TY_FN, self._type(ty.ret), params, 1 if ty.vararg else 0)
        raise BinFormatError(f"cannot serialize type {ty!r}")

    # -- emission -----------------------------------------------------------

    def write(self) -> bytes:
        body = bytearray()
        self._emit_module(body)
        out = bytearray(MAGIC)
        _varint(out, FORMAT_VERSION)
        # String and type tables were populated while emitting the body.
        _varint(out, len(self._string_list))
        for text in self._string_list:
            raw = text.encode("utf-8")
            _varint(out, len(raw))
            out += raw
        _varint(out, len(self._type_records))
        for record in self._type_records:
            _varint(out, record[0])
            if record[0] == _TY_FN:
                _varint(out, record[1])
                _varint(out, len(record[2]))
                for param in record[2]:
                    _varint(out, param)
                _varint(out, record[3])
            else:
                for field in record[1:]:
                    _varint(out, field)
        out += body
        return bytes(out)

    def _emit_module(self, out: bytearray) -> None:
        module = self.module
        _varint(out, self._string(module.name))
        _varint(out, len(module.structs))
        for struct_ty in module.structs.values():
            _varint(out, self._string(struct_ty.name))
            _varint(out, len(struct_ty.fields))
            for field in struct_ty.fields:
                _varint(out, self._type(field))
        _varint(out, len(module.globals))
        for gv in module.globals.values():
            _varint(out, self._string(gv.name))
            _varint(out, self._type(gv.allocated_type))
            _varint(out, 1 if gv.constant else 0)
            if gv.initializer is None:
                _varint(out, 0)
            else:
                _varint(out, 1)
                self._emit_constant(out, gv.initializer)
        # Headers for every function first (so calls and function-address
        # constants can reference functions defined later), then bodies.
        _varint(out, len(module.functions))
        for fn in module.functions.values():
            self._emit_function_header(out, fn)
        for fn in module.functions.values():
            if not fn.is_declaration():
                self._emit_function_body(out, fn)
        self._emit_meta(out, module.metadata)

    def _emit_constant(self, out: bytearray, value) -> None:
        """A constant record (global initializers, operand constants)."""
        if isinstance(value, ConstantInt):
            _varint(out, _OP_INT)
            _varint(out, self._type(value.type))
            _varint(out, _zigzag(value.value))
        elif isinstance(value, ConstantFloat):
            _varint(out, _OP_FLOAT)
            _varint(out, self._type(value.type))
            out += _PACK_F64.pack(value.value)
        elif isinstance(value, ConstantNull):
            _varint(out, _OP_NULL)
            _varint(out, self._type(value.type))
        elif isinstance(value, UndefValue):
            _varint(out, _OP_UNDEF)
            _varint(out, self._type(value.type))
        elif isinstance(value, ConstantString):
            _varint(out, _OP_STRING)
            _varint(out, self._type(value.type))
            _varint(out, self._string(value.text))
        elif isinstance(value, ConstantArray):
            _varint(out, _OP_ARRAY)
            _varint(out, self._type(value.type))
            _varint(out, len(value.elements))
            for element in value.elements:
                self._emit_constant(out, element)
        elif isinstance(value, GlobalVariable):
            _varint(out, _OP_GLOBAL)
            _varint(out, self._string(value.name))
        elif isinstance(value, Function):
            _varint(out, _OP_FUNCTION)
            _varint(out, self._string(value.name))
        else:
            raise BinFormatError(f"cannot serialize constant {value!r}")

    def _emit_function_header(self, out: bytearray, fn: Function) -> None:
        _varint(out, self._string(fn.name))
        _varint(out, self._type(fn.function_type))
        for arg in fn.args:
            _varint(out, self._string(arg.name))
        attrs = sorted(fn.attributes)
        _varint(out, len(attrs))
        for attr in attrs:
            _varint(out, self._string(attr))
        self._emit_meta(out, fn.metadata)
        _varint(out, 0 if fn.is_declaration() else 1)

    def _emit_function_body(self, out: bytearray, fn: Function) -> None:
        _varint(out, fn._name_counter)

        # Value index space: args first, then every non-void instruction
        # in block-major order.
        value_index: dict[int, int] = {}
        for arg in fn.args:
            value_index[id(arg)] = len(value_index)
        defs: list[Instruction] = []
        for block in fn.blocks:
            for inst in block.instructions:
                if not inst.type.is_void():
                    value_index[id(inst)] = len(value_index)
                    defs.append(inst)
        block_index = {id(b): i for i, b in enumerate(fn.blocks)}

        _varint(out, len(fn.blocks))
        for block in fn.blocks:
            _varint(out, self._string(block.name))
            _varint(out, len(block.instructions))

        # Per-function value table: type + name of every defined value,
        # so the reader can type forward references in one pass.
        _varint(out, len(defs))
        for inst in defs:
            _varint(out, self._type(inst.type))
            _varint(out, self._string(inst.name))

        # Naming state beyond the live names (names of since-erased
        # values stay reserved so future transforms pick fresh ones).
        live = {arg.name for arg in fn.args}
        live.update(b.name for b in fn.blocks)
        live.update(inst.name for inst in defs)
        extras = sorted(fn._used_names - live)
        _varint(out, len(extras))
        for name in extras:
            _varint(out, self._string(name))

        for block in fn.blocks:
            for inst in block.instructions:
                self._emit_instruction(out, inst, value_index, block_index)

    def _emit_operand(
        self, out: bytearray, value, value_index: dict[int, int]
    ) -> None:
        index = value_index.get(id(value))
        if index is not None:
            _varint(out, _OP_VALUE)
            _varint(out, index)
            return
        self._emit_constant(out, value)

    def _emit_instruction(
        self,
        out: bytearray,
        inst: Instruction,
        values: dict[int, int],
        blocks: dict[int, int],
    ) -> None:
        if isinstance(inst, BinaryOp):
            _varint(out, _I_BINARY)
            _varint(out, _BIN_OPCODE_INDEX[inst.opcode])
            self._emit_operand(out, inst.lhs, values)
            self._emit_operand(out, inst.rhs, values)
        elif isinstance(inst, ICmp):
            _varint(out, _I_ICMP)
            _varint(out, _ICMP_INDEX[inst.predicate])
            self._emit_operand(out, inst.lhs, values)
            self._emit_operand(out, inst.rhs, values)
        elif isinstance(inst, FCmp):
            _varint(out, _I_FCMP)
            _varint(out, _FCMP_INDEX[inst.predicate])
            self._emit_operand(out, inst.lhs, values)
            self._emit_operand(out, inst.rhs, values)
        elif isinstance(inst, Alloca):
            _varint(out, _I_ALLOCA)
            _varint(out, self._type(inst.allocated_type))
        elif isinstance(inst, Load):
            _varint(out, _I_LOAD)
            self._emit_operand(out, inst.pointer, values)
        elif isinstance(inst, Store):
            _varint(out, _I_STORE)
            self._emit_operand(out, inst.value, values)
            self._emit_operand(out, inst.pointer, values)
        elif isinstance(inst, ElemPtr):
            _varint(out, _I_ELEMPTR)
            self._emit_operand(out, inst.base, values)
            indices = inst.indices
            _varint(out, len(indices))
            for index in indices:
                self._emit_operand(out, index, values)
        elif isinstance(inst, Call):
            _varint(out, _I_CALL)
            self._emit_operand(out, inst.callee, values)
            args = inst.args
            _varint(out, len(args))
            for arg in args:
                self._emit_operand(out, arg, values)
        elif isinstance(inst, Phi):
            _varint(out, _I_PHI)
            _varint(out, self._type(inst.type))
            incoming = list(inst.incoming())
            _varint(out, len(incoming))
            for value, pred in incoming:
                self._emit_operand(out, value, values)
                _varint(out, blocks[id(pred)])
        elif isinstance(inst, Select):
            _varint(out, _I_SELECT)
            self._emit_operand(out, inst.condition, values)
            self._emit_operand(out, inst.true_value, values)
            self._emit_operand(out, inst.false_value, values)
        elif isinstance(inst, Cast):
            _varint(out, _I_CAST)
            _varint(out, _CAST_INDEX[inst.opcode])
            self._emit_operand(out, inst.value, values)
            _varint(out, self._type(inst.type))
        elif isinstance(inst, Branch):
            _varint(out, _I_BR)
            _varint(out, blocks[id(inst.target)])
        elif isinstance(inst, CondBranch):
            _varint(out, _I_CONDBR)
            self._emit_operand(out, inst.condition, values)
            _varint(out, blocks[id(inst.true_block)])
            _varint(out, blocks[id(inst.false_block)])
        elif isinstance(inst, Switch):
            _varint(out, _I_SWITCH)
            self._emit_operand(out, inst.value, values)
            _varint(out, blocks[id(inst.default)])
            cases = list(inst.cases())
            _varint(out, len(cases))
            for const, target in cases:
                self._emit_constant(out, const)
                _varint(out, blocks[id(target)])
        elif isinstance(inst, Ret):
            _varint(out, _I_RET)
            if inst.value is None:
                _varint(out, 0)
            else:
                _varint(out, 1)
                self._emit_operand(out, inst.value, values)
        elif isinstance(inst, Unreachable):
            _varint(out, _I_UNREACHABLE)
        else:
            raise BinFormatError(f"cannot serialize instruction {inst!r}")

    def _emit_meta(self, out: bytearray, value) -> None:
        """Recursive metadata encoding (plain JSON-ish values + tuples)."""
        if value is None:
            _varint(out, _M_NONE)
        elif value is False:
            _varint(out, _M_FALSE)
        elif value is True:
            _varint(out, _M_TRUE)
        elif isinstance(value, int):
            _varint(out, _M_INT)
            _varint(out, _zigzag(value))
        elif isinstance(value, float):
            _varint(out, _M_FLOAT)
            out += _PACK_F64.pack(value)
        elif isinstance(value, str):
            _varint(out, _M_STR)
            _varint(out, self._string(value))
        elif isinstance(value, bytes):
            _varint(out, _M_BYTES)
            _varint(out, len(value))
            out += value
        elif isinstance(value, (list, tuple)):
            _varint(out, _M_LIST if isinstance(value, list) else _M_TUPLE)
            _varint(out, len(value))
            for item in value:
                self._emit_meta(out, item)
        elif isinstance(value, dict):
            _varint(out, _M_DICT)
            _varint(out, len(value))
            for key, item in value.items():
                self._emit_meta(out, key)
                self._emit_meta(out, item)
        else:
            raise BinFormatError(
                f"cannot serialize metadata value {value!r} "
                f"({type(value).__name__})"
            )


def _varint(out: bytearray, n: int) -> None:
    """Unsigned LEB128."""
    if n < 0:
        raise BinFormatError(f"negative varint {n}")
    while True:
        byte = n & 0x7F
        n >>= 7
        if n:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


# -- reader -------------------------------------------------------------------


class _Reader:
    """Bounds-checked cursor over the raw bytes."""

    __slots__ = ("data", "pos", "end")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.end = len(data)

    def varint(self) -> int:
        data, pos, end = self.data, self.pos, self.end
        result = 0
        shift = 0
        while True:
            if pos >= end:
                raise BinTruncatedError(
                    f"unexpected end of data at offset {pos}"
                )
            byte = data[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                self.pos = pos
                return result
            shift += 7

    def take(self, n: int) -> bytes:
        if self.pos + n > self.end:
            raise BinTruncatedError(
                f"unexpected end of data at offset {self.pos}"
            )
        raw = self.data[self.pos : self.pos + n]
        self.pos += n
        return raw

    def f64(self) -> float:
        return _PACK_F64.unpack(self.take(8))[0]


class _ModuleReader:
    def __init__(self, data: bytes):
        self.r = _Reader(data)
        self.strings: list[str] = []
        self.types: list[Type] = []
        self.struct_shells: dict[str, StructType] = {}
        self.module: Module | None = None

    # -- table lookups ------------------------------------------------------

    def _string(self) -> str:
        index = self.r.varint()
        if index >= len(self.strings):
            raise BinFormatError(f"string reference {index} out of range")
        return self.strings[index]

    def _type(self) -> Type:
        index = self.r.varint()
        if index >= len(self.types):
            raise BinFormatError(f"type reference {index} out of range")
        return self.types[index]

    # -- top level ----------------------------------------------------------

    def read(self) -> Module:
        r = self.r
        if r.take(4) != MAGIC:
            raise BinVersionError(
                "not a binary IR file (bad magic); expected a .nir "
                "module written by repro.ir.binio"
            )
        version = r.varint()
        if version != FORMAT_VERSION:
            raise BinVersionError(
                f"unsupported binary IR format version {version} "
                f"(this reader understands version {FORMAT_VERSION})"
            )
        for _ in range(r.varint()):
            length = r.varint()
            try:
                self.strings.append(r.take(length).decode("utf-8"))
            except UnicodeDecodeError as error:
                raise BinFormatError(f"malformed string table: {error}")
        self._read_type_table()
        module = Module(self._string())
        self.module = module
        self._read_structs(module)
        self._read_globals(module)
        defined: list[Function] = []
        for _ in range(r.varint()):
            fn = self._read_function_header(module)
            if fn is not None:
                defined.append(fn)
        for fn in defined:
            self._read_function_body(fn)
        module.metadata = self._read_meta_dict()
        if r.pos != r.end:
            raise BinFormatError(
                f"{r.end - r.pos} trailing byte(s) after module data"
            )
        return module

    def _read_type_table(self) -> None:
        r = self.r
        for _ in range(r.varint()):
            tag = r.varint()
            if tag == _TY_INT:
                self.types.append(IntType(r.varint()))
            elif tag == _TY_FLOAT:
                self.types.append(FloatType())
            elif tag == _TY_VOID:
                self.types.append(VoidType())
            elif tag == _TY_LABEL:
                self.types.append(LabelType())
            elif tag == _TY_PTR:
                self.types.append(PointerType(self._type()))
            elif tag == _TY_ARRAY:
                element = self._type()
                self.types.append(ArrayType(element, r.varint()))
            elif tag == _TY_STRUCT:
                name = self._string()
                shell = self.struct_shells.get(name)
                if shell is None:
                    shell = StructType(name)
                    self.struct_shells[name] = shell
                self.types.append(shell)
            elif tag == _TY_FN:
                ret = self._type()
                params = [self._type() for _ in range(r.varint())]
                vararg = bool(r.varint())
                self.types.append(FunctionType(ret, params, vararg))
            else:
                raise BinFormatError(f"unknown type tag {tag}")

    def _read_structs(self, module: Module) -> None:
        for _ in range(self.r.varint()):
            name = self._string()
            fields = [self._type() for _ in range(self.r.varint())]
            shell = self.struct_shells.get(name)
            if shell is None:
                shell = StructType(name)
                self.struct_shells[name] = shell
            shell.set_body(fields)
            module.structs[name] = shell

    def _read_globals(self, module: Module) -> None:
        for _ in range(self.r.varint()):
            name = self._string()
            allocated = self._type()
            constant = bool(self.r.varint())
            initializer = None
            if self.r.varint():
                initializer = self._read_constant()
            module.add_global(name, allocated, initializer, constant)

    def _read_constant(self):
        tag = self.r.varint()
        return self._decode_constant(tag)

    def _decode_constant(self, tag: int):
        r = self.r
        if tag == _OP_INT:
            ty = self._type()
            if not isinstance(ty, IntType):
                raise BinFormatError(f"integer constant of type {ty}")
            return ConstantInt(ty, _unzigzag(r.varint()))
        if tag == _OP_FLOAT:
            ty = self._type()
            return ConstantFloat(ty, r.f64())
        if tag == _OP_NULL:
            ty = self._type()
            if not isinstance(ty, PointerType):
                raise BinFormatError(f"null constant of type {ty}")
            return ConstantNull(ty)
        if tag == _OP_UNDEF:
            return UndefValue(self._type())
        if tag == _OP_STRING:
            ty = self._type()
            return ConstantString(ty, self._string())
        if tag == _OP_ARRAY:
            ty = self._type()
            elements = [self._read_constant() for _ in range(r.varint())]
            return ConstantArray(ty, elements)
        if tag == _OP_GLOBAL:
            name = self._string()
            gv = self.module.globals.get(name)
            if gv is None:
                raise BinFormatError(f"reference to unknown global @{name}")
            return gv
        if tag == _OP_FUNCTION:
            name = self._string()
            fn = self.module.functions.get(name)
            if fn is None:
                raise BinFormatError(f"reference to unknown function @{name}")
            return fn
        raise BinFormatError(f"unknown constant tag {tag}")

    # -- functions ----------------------------------------------------------

    def _read_function_header(self, module: Module) -> Function | None:
        """Create the function shell; returns it when a body follows."""
        name = self._string()
        fnty = self._type()
        if not isinstance(fnty, FunctionType):
            raise BinFormatError(f"function @{name} has non-function type")
        arg_names = [self._string() for _ in range(len(fnty.params))]
        fn = module.add_function(name, fnty, arg_names)
        for _ in range(self.r.varint()):
            fn.attributes.add(self._string())
        fn.metadata = self._read_meta_dict()
        return fn if self.r.varint() else None

    def _read_function_body(self, fn: Function) -> None:
        name_counter = self.r.varint()

        blocks: list[BasicBlock] = []
        counts: list[int] = []
        for _ in range(self.r.varint()):
            block = BasicBlock(self._string(), fn)
            fn.blocks.append(block)
            fn._used_names.add(block.name)
            blocks.append(block)
            counts.append(self.r.varint())

        # Value table: (type, name) per non-void instruction, indexed
        # after the arguments in the shared value index space.
        defs: list[tuple[Type, str]] = []
        for _ in range(self.r.varint()):
            ty = self._type()
            defs.append((ty, self._string()))

        extras = [self._string() for _ in range(self.r.varint())]

        # Decode instruction streams.  ``values`` is the value index
        # space (args then defs); forward references get a typed
        # placeholder from the def table and are patched once the real
        # instruction exists — the text parser's scheme exactly.
        values: list[Value] = list(fn.args)
        nargs = len(fn.args)
        placeholders: dict[int, Value] = {}

        def lookup(index: int) -> Value:
            if index < len(values):
                return values[index]
            def_index = index - nargs
            if def_index >= len(defs):
                raise BinFormatError(
                    f"value reference {index} out of range in @{fn.name}"
                )
            placeholder = placeholders.get(index)
            if placeholder is None:
                ty, name = defs[def_index]
                placeholder = Value(ty, name)
                placeholders[index] = placeholder
            return placeholder

        def block_at(index: int) -> BasicBlock:
            if index >= len(blocks):
                raise BinFormatError(
                    f"block reference {index} out of range in @{fn.name}"
                )
            return blocks[index]

        def_cursor = 0
        for block, count in zip(blocks, counts):
            for _ in range(count):
                inst = self._read_instruction(lookup, block_at)
                if not inst.type.is_void():
                    if def_cursor >= len(defs):
                        raise BinFormatError(
                            f"instruction stream of @{fn.name} defines "
                            "more values than its value table"
                        )
                    inst.name = defs[def_cursor][1]
                    index = nargs + def_cursor
                    def_cursor += 1
                    placeholder = placeholders.pop(index, None)
                    if placeholder is not None:
                        placeholder.replace_all_uses_with(inst)
                    values.append(inst)
                block.append(inst)
        if def_cursor != len(defs):
            raise BinFormatError(
                f"value table of @{fn.name} has {len(defs)} entries but "
                f"the instruction stream defines {def_cursor}"
            )
        if placeholders:
            missing = ", ".join(
                defs[i - nargs][1] for i in sorted(placeholders)
            )
            raise BinFormatError(
                f"unresolved forward reference(s) in @{fn.name}: {missing}"
            )

        # Restore naming state so later transforms pick the same fresh
        # names they would have picked on the originally-written module.
        fn._used_names.update(extras)
        fn._name_counter = name_counter

    def _read_instruction(self, lookup, block_at) -> Instruction:
        r = self.r
        tag = r.varint()
        if tag == _I_BINARY:
            index = r.varint()
            if index >= len(_BIN_OPCODES):
                raise BinFormatError(f"unknown binary opcode {index}")
            return BinaryOp(
                _BIN_OPCODES[index], self._read_operand(lookup),
                self._read_operand(lookup),
            )
        if tag == _I_ICMP:
            index = r.varint()
            if index >= len(ICMP_PREDICATES):
                raise BinFormatError(f"unknown icmp predicate {index}")
            return ICmp(
                ICMP_PREDICATES[index], self._read_operand(lookup),
                self._read_operand(lookup),
            )
        if tag == _I_FCMP:
            index = r.varint()
            if index >= len(FCMP_PREDICATES):
                raise BinFormatError(f"unknown fcmp predicate {index}")
            return FCmp(
                FCMP_PREDICATES[index], self._read_operand(lookup),
                self._read_operand(lookup),
            )
        if tag == _I_ALLOCA:
            return Alloca(self._type())
        if tag == _I_LOAD:
            return Load(self._read_operand(lookup))
        if tag == _I_STORE:
            value = self._read_operand(lookup)
            return Store(value, self._read_operand(lookup))
        if tag == _I_ELEMPTR:
            base = self._read_operand(lookup)
            indices = [
                self._read_operand(lookup) for _ in range(r.varint())
            ]
            return ElemPtr(base, indices)
        if tag == _I_CALL:
            callee = self._read_operand(lookup)
            args = [self._read_operand(lookup) for _ in range(r.varint())]
            return Call(callee, args)
        if tag == _I_PHI:
            phi = Phi(self._type())
            for _ in range(r.varint()):
                value = self._read_operand(lookup)
                phi.add_incoming(value, block_at(r.varint()))
            return phi
        if tag == _I_SELECT:
            cond = self._read_operand(lookup)
            true_value = self._read_operand(lookup)
            return Select(cond, true_value, self._read_operand(lookup))
        if tag == _I_CAST:
            index = r.varint()
            if index >= len(CAST_OPS):
                raise BinFormatError(f"unknown cast opcode {index}")
            value = self._read_operand(lookup)
            return Cast(CAST_OPS[index], value, self._type())
        if tag == _I_BR:
            return Branch(block_at(r.varint()))
        if tag == _I_CONDBR:
            cond = self._read_operand(lookup)
            true_block = block_at(r.varint())
            return CondBranch(cond, true_block, block_at(r.varint()))
        if tag == _I_SWITCH:
            value = self._read_operand(lookup)
            default = block_at(r.varint())
            switch = Switch(value, default)
            for _ in range(r.varint()):
                const = self._read_constant()
                switch.add_case(const, block_at(r.varint()))
            return switch
        if tag == _I_RET:
            if r.varint():
                return Ret(self._read_operand(lookup))
            return Ret(None)
        if tag == _I_UNREACHABLE:
            return Unreachable()
        raise BinFormatError(f"unknown instruction tag {tag}")

    def _read_operand(self, lookup):
        tag = self.r.varint()
        if tag == _OP_VALUE:
            return lookup(self.r.varint())
        return self._decode_constant(tag)

    # -- metadata -----------------------------------------------------------

    def _read_meta(self):
        r = self.r
        tag = r.varint()
        if tag == _M_NONE:
            return None
        if tag == _M_FALSE:
            return False
        if tag == _M_TRUE:
            return True
        if tag == _M_INT:
            return _unzigzag(r.varint())
        if tag == _M_FLOAT:
            return r.f64()
        if tag == _M_STR:
            return self._string()
        if tag == _M_BYTES:
            return bytes(r.take(r.varint()))
        if tag == _M_LIST:
            return [self._read_meta() for _ in range(r.varint())]
        if tag == _M_TUPLE:
            return tuple(self._read_meta() for _ in range(r.varint()))
        if tag == _M_DICT:
            return self._read_dict_items()
        raise BinFormatError(f"unknown metadata tag {tag}")

    def _read_meta_dict(self) -> dict:
        tag = self.r.varint()
        if tag != _M_DICT:
            raise BinFormatError(f"expected metadata dict, got tag {tag}")
        return self._read_dict_items()

    def _read_dict_items(self) -> dict:
        return {
            self._read_meta(): self._read_meta()
            for _ in range(self.r.varint())
        }


# -- public API ---------------------------------------------------------------


def write_module(module: Module) -> bytes:
    """Serialize ``module`` to the versioned binary format."""
    return _Writer(module).write()


def read_module(data: bytes) -> Module:
    """Deserialize a module written by :func:`write_module`.

    Raises :class:`BinVersionError` for wrong magic/version,
    :class:`BinTruncatedError` for short data, and
    :class:`BinFormatError` for any other malformed content.
    """
    try:
        with gc_paused:
            return _ModuleReader(data).read()
    except BinFormatError:
        raise
    except (ValueError, TypeError, KeyError, IndexError) as error:
        # Corrupt content that slipped past tag checks (e.g. an index
        # that decodes to a structurally invalid module).
        raise BinFormatError(f"corrupt binary IR: {error}") from error


def is_binary_ir(data: bytes) -> bool:
    """True when ``data`` starts with the ``.nir`` magic."""
    return data[:4] == MAGIC


def write_module_file(module: Module, path: str) -> None:
    with open(path, "wb") as handle:
        handle.write(write_module(module))


def read_module_file(path: str) -> Module:
    with open(path, "rb") as handle:
        return read_module(handle.read())
