"""The ``.nir`` writer: :func:`write_module` and the file form.

The format, its tags and the reader are in :mod:`repro.ir.binio`; the
writer is a module of its own so that a process that only reads ``.nir``
(a warm artifact-cache hit) never imports it.  ``repro.ir`` exports
both functions, loading this module on first use.
"""

from __future__ import annotations

from .binio import (
    _BIN_OPCODES, _I_ALLOCA, _I_BINARY, _I_BR, _I_CALL, _I_CAST, _I_CONDBR,
    _I_ELEMPTR, _I_FCMP, _I_ICMP, _I_LOAD, _I_PHI, _I_RET, _I_SELECT,
    _I_STORE, _I_SWITCH, _I_UNREACHABLE, _M_BYTES, _M_DICT, _M_FALSE,
    _M_FLOAT, _M_INT, _M_LIST, _M_NONE, _M_STR, _M_TRUE, _M_TUPLE,
    _OP_ARRAY, _OP_FLOAT, _OP_FUNCTION, _OP_GLOBAL, _OP_INT, _OP_NULL,
    _OP_STRING, _OP_UNDEF, _OP_VALUE, _PACK_F64, _TY_ARRAY, _TY_FLOAT,
    _TY_FN, _TY_INT, _TY_LABEL, _TY_PTR, _TY_STRUCT, _TY_VOID,
    FORMAT_VERSION, MAGIC, BinFormatError,
)
from .instructions import (
    CAST_OPS, FCMP_PREDICATES, ICMP_PREDICATES, Alloca, BinaryOp, Branch,
    Call, Cast, CondBranch, ElemPtr, FCmp, ICmp, Instruction, Load, Phi, Ret,
    Select, Store, Switch, Unreachable,
)
from .module import Function, Module
from .types import (
    ArrayType, FloatType, FunctionType, IntType, LabelType, PointerType,
    StructType, Type, VoidType,
)
from .values import (
    ConstantArray, ConstantFloat, ConstantInt, ConstantNull, ConstantString,
    GlobalVariable, UndefValue,
)

_BIN_OPCODE_INDEX = {op: i for i, op in enumerate(_BIN_OPCODES)}
_ICMP_INDEX = {p: i for i, p in enumerate(ICMP_PREDICATES)}
_FCMP_INDEX = {p: i for i, p in enumerate(FCMP_PREDICATES)}
_CAST_INDEX = {op: i for i, op in enumerate(CAST_OPS)}


def _zigzag(n: int) -> int:
    return n * 2 if n >= 0 else -n * 2 - 1


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


def write_module(module: Module) -> bytes:
    """Serialize ``module`` to the versioned binary format."""
    return _Writer(module).write()


def write_module_file(module: Module, path: str) -> None:
    with open(path, "wb") as handle:
        handle.write(write_module(module))
