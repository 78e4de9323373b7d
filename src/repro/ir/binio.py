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

This module is the format and its reader; the writer is
:mod:`repro.ir.binwrite`, imported where a module is written.  A
function body, nearly all of a module's bytes, is read in one pass over
positions, the hot varints read in place and each instruction put
straight into its block (``tests/ir/test_nir_census.py`` holds it to the
error classes and modules of a record-by-record reading).
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


def _unzigzag(z: int) -> int:
    return z // 2 if z % 2 == 0 else -(z // 2) - 1


# -- reader -------------------------------------------------------------------


class _Reader:
    """Bounds-checked cursor over the raw bytes."""

    __slots__ = ("data", "pos", "end")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.end = len(data)

    def varint(self) -> int:
        value, self.pos = _varint_at(self.data, self.pos, self.end)
        return value

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


def _varint_at(data: bytes, pos: int, end: int) -> tuple[int, int]:
    """The unsigned LEB128 at ``pos`` and the position after it."""
    result = shift = 0
    while True:
        if pos >= end:
            raise BinTruncatedError(f"unexpected end of data at offset {pos}")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, pos
        shift += 7


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
        """One function's body: its blocks, value table, naming state and
        instruction stream.

        An instruction's tag and an operand's tag and value index are
        read in place when they are one byte (`_varint_at` reads every
        other varint), and each instruction is appended to its block as
        soon as it is read (`BasicBlock.append`: a phi below a non-phi is
        a `ValueError`, which `read_module` reports as `BinFormatError`).
        Every read and every check happens in the order of the
        record layout, so malformed data fails with the error class a
        record-by-record reading gives.
        """
        r = self.r
        data, end, pos = r.data, r.end, r.pos
        strings, types = self.strings, self.types
        nstrings, ntypes = len(strings), len(types)

        name_counter, pos = _varint_at(data, pos, end)
        used = fn._used_names
        blocks: list[BasicBlock] = []
        counts: list[int] = []
        nblocks, pos = _varint_at(data, pos, end)
        for _ in range(nblocks):
            index, pos = _varint_at(data, pos, end)
            if index >= nstrings:
                raise BinFormatError(f"string reference {index} out of range")
            block = BasicBlock(strings[index], fn)
            fn.blocks.append(block)
            used.add(block.name)
            blocks.append(block)
            count, pos = _varint_at(data, pos, end)
            counts.append(count)

        # Value table: (type, name) per non-void instruction, indexed
        # after the arguments in the shared value index space.
        defs: list[tuple[Type, str]] = []
        ndefs, pos = _varint_at(data, pos, end)
        for _ in range(ndefs):
            index, pos = _varint_at(data, pos, end)
            if index >= ntypes:
                raise BinFormatError(f"type reference {index} out of range")
            ty = types[index]
            index, pos = _varint_at(data, pos, end)
            if index >= nstrings:
                raise BinFormatError(f"string reference {index} out of range")
            defs.append((ty, strings[index]))

        extras = []
        nextras, pos = _varint_at(data, pos, end)
        for _ in range(nextras):
            index, pos = _varint_at(data, pos, end)
            if index >= nstrings:
                raise BinFormatError(f"string reference {index} out of range")
            extras.append(strings[index])

        # ``values`` is the value index space (args then defs); forward
        # references get a typed placeholder from the def table and are
        # patched once the real instruction exists — the text parser's
        # scheme exactly.
        values: list[Value] = list(fn.args)
        nargs = len(fn.args)
        placeholders: dict[int, Value] = {}

        def operand(pos: int) -> tuple[Value, int]:
            """The operand record at ``pos``, and the position after it."""
            tag = data[pos] if pos < end else 128
            if tag < 128:
                pos += 1
            else:
                tag, pos = _varint_at(data, pos, end)
            if tag == _OP_VALUE:
                index = data[pos] if pos < end else 128
                if index < 128:
                    pos += 1
                else:
                    index, pos = _varint_at(data, pos, end)
                if index < len(values):
                    return values[index], pos
                if index - nargs >= ndefs:
                    raise BinFormatError(
                        f"value reference {index} out of range in @{fn.name}"
                    )
                placeholder = placeholders.get(index)
                if placeholder is None:
                    ty, name = defs[index - nargs]
                    placeholder = placeholders[index] = Value(ty, name)
                return placeholder, pos
            r.pos = pos
            value = self._decode_constant(tag)
            return value, r.pos

        def block_at(pos: int) -> tuple[BasicBlock, int]:
            """The block reference at ``pos``, and the position after it."""
            index, pos = _varint_at(data, pos, end)
            if index >= nblocks:
                raise BinFormatError(
                    f"block reference {index} out of range in @{fn.name}"
                )
            return blocks[index], pos

        def type_at(pos: int) -> tuple[Type, int]:
            """The type reference at ``pos``, and the position after it."""
            index, pos = _varint_at(data, pos, end)
            if index >= ntypes:
                raise BinFormatError(f"type reference {index} out of range")
            return types[index], pos

        def_cursor = 0
        for block, count in zip(blocks, counts):
            for _ in range(count):
                tag = data[pos] if pos < end else 128
                if tag < 128:
                    pos += 1
                else:
                    tag, pos = _varint_at(data, pos, end)
                if tag == _I_BINARY:
                    index, pos = _varint_at(data, pos, end)
                    if index >= len(_BIN_OPCODES):
                        raise BinFormatError(f"unknown binary opcode {index}")
                    lhs, pos = operand(pos)
                    rhs, pos = operand(pos)
                    inst = BinaryOp(_BIN_OPCODES[index], lhs, rhs)
                elif tag == _I_LOAD:
                    pointer, pos = operand(pos)
                    inst = Load(pointer)
                elif tag == _I_STORE:
                    value, pos = operand(pos)
                    pointer, pos = operand(pos)
                    inst = Store(value, pointer)
                elif tag == _I_BR:
                    target, pos = block_at(pos)
                    inst = Branch(target)
                elif tag == _I_CONDBR:
                    cond, pos = operand(pos)
                    true_block, pos = block_at(pos)
                    false_block, pos = block_at(pos)
                    inst = CondBranch(cond, true_block, false_block)
                elif tag == _I_ICMP:
                    index, pos = _varint_at(data, pos, end)
                    if index >= len(ICMP_PREDICATES):
                        raise BinFormatError(f"unknown icmp predicate {index}")
                    lhs, pos = operand(pos)
                    rhs, pos = operand(pos)
                    inst = ICmp(ICMP_PREDICATES[index], lhs, rhs)
                elif tag == _I_FCMP:
                    index, pos = _varint_at(data, pos, end)
                    if index >= len(FCMP_PREDICATES):
                        raise BinFormatError(f"unknown fcmp predicate {index}")
                    lhs, pos = operand(pos)
                    rhs, pos = operand(pos)
                    inst = FCmp(FCMP_PREDICATES[index], lhs, rhs)
                elif tag == _I_PHI:
                    ty, pos = type_at(pos)
                    inst = Phi(ty)
                    n, pos = _varint_at(data, pos, end)
                    for _ in range(n):
                        value, pos = operand(pos)
                        pred, pos = block_at(pos)
                        inst.add_incoming(value, pred)
                elif tag == _I_ELEMPTR:
                    base, pos = operand(pos)
                    indices = []
                    n, pos = _varint_at(data, pos, end)
                    for _ in range(n):
                        value, pos = operand(pos)
                        indices.append(value)
                    inst = ElemPtr(base, indices)
                elif tag == _I_CALL:
                    callee, pos = operand(pos)
                    args = []
                    n, pos = _varint_at(data, pos, end)
                    for _ in range(n):
                        value, pos = operand(pos)
                        args.append(value)
                    inst = Call(callee, args)
                elif tag == _I_CAST:
                    index, pos = _varint_at(data, pos, end)
                    if index >= len(CAST_OPS):
                        raise BinFormatError(f"unknown cast opcode {index}")
                    value, pos = operand(pos)
                    ty, pos = type_at(pos)
                    inst = Cast(CAST_OPS[index], value, ty)
                elif tag == _I_RET:
                    flag, pos = _varint_at(data, pos, end)
                    if flag:
                        value, pos = operand(pos)
                        inst = Ret(value)
                    else:
                        inst = Ret(None)
                elif tag == _I_SELECT:
                    cond, pos = operand(pos)
                    true_value, pos = operand(pos)
                    false_value, pos = operand(pos)
                    inst = Select(cond, true_value, false_value)
                elif tag == _I_ALLOCA:
                    ty, pos = type_at(pos)
                    inst = Alloca(ty)
                elif tag == _I_SWITCH:
                    value, pos = operand(pos)
                    default, pos = block_at(pos)
                    inst = Switch(value, default)
                    n, pos = _varint_at(data, pos, end)
                    for _ in range(n):
                        r.pos = pos
                        const = self._read_constant()
                        target, pos = block_at(r.pos)
                        inst.add_case(const, target)
                elif tag == _I_UNREACHABLE:
                    inst = Unreachable()
                else:
                    raise BinFormatError(f"unknown instruction tag {tag}")
                if not inst.type.is_void():
                    if def_cursor >= ndefs:
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
        r.pos = pos
        if def_cursor != ndefs:
            raise BinFormatError(
                f"value table of @{fn.name} has {ndefs} entries but "
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
        used.update(extras)
        fn._name_counter = name_counter

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


def read_module_file(path: str) -> Module:
    with open(path, "rb") as handle:
        return read_module(handle.read())
