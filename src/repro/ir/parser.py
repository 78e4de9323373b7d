"""Parser for the textual repro IR.

Reads the form emitted by :mod:`repro.ir.printer`, completing the
round-trippable serialization the whole-IR tool and the golden tests rely
on.  The grammar is line-oriented: one struct, global, declaration, label
or instruction per line, a function body running from its ``define ... {``
line to a line holding only ``}``; blank lines and ``;`` comments are
skipped::

    struct       %S = type { [type (, type)*] }
    global       @g = (global | constant) type [constant | [ [type constant (, ...)*] ]]
    declare      declare signature
    define       define signature {
    signature    @f( [type %arg (, type %arg)*] [, ...] ) -> type attribute*
    label        name:
    instruction  [%x =] opcode operands
    type         (void | double | label | iN | %S | [ N x type ]) (* | ( [type (, type)*] [, ...] ))*
    operand      type (%x | @g | INT | FLOAT | null | undef)
    FLOAT        -?D.D[e(+|-)D] | 0xHHHHHHHHHHHHHHHH

An ``INT`` has an integer type and a ``FLOAT`` is a ``double``: the
shortest decimal that reads back as the same bits, with a dot in its
mantissa, or — for an infinity or a NaN — its 16 hex digits of bits, as
:meth:`ConstantFloat.ref` writes it.

The operands of each opcode are those :meth:`Instruction.__str__` prints:
``add T a, T b``, ``icmp P T a, T b``, ``alloca T``, ``load T, T p``,
``store T v, T p``, ``elem_ptr T p (, T i)*``, ``call T f( args )``,
``phi T [ v, %b ] (, [ v, %b ])*``, ``select T c, T a, T b``,
``trunc T v to T`` (every cast), ``br label %b``,
``br T c, label %t, label %f``, ``switch T v, label %d [ (T c, label %b)* ]``,
``ret void``, ``ret T v`` and ``unreachable``.  A block reference ``%b``
is spelled with its ``%``, and the ``T`` in front of a named operand is
its definition's type.

A line is split by one ``findall`` (:func:`_tokenize`; a body line that
recurs is split once) and read by index over its tokens, and a type
spelling resolves through per-parse tables.  Struct names are known
before any line is read and function bodies are read after every
top-level line, so a name may be used above its definition: a local is a
placeholder until its definition, and phi operands resolve once the whole
body is read.

Error contract: malformed text raises :class:`ParseError` and nothing
else, with a message that starts ``line N:`` (for an undefined local, the
line of its first use).  Tokens left over after a complete line are an
error, and so is an operand written with another type than its
definition's, a type nested deeper than the stack, and whatever the
IR's constructors refuse (a load through an integer, a second
``declare @f``), which is reported in their words.
"""

from __future__ import annotations

import re
import struct

from ..perf import gc_paused
from .instructions import (
    CAST_OPS, FCMP_PREDICATES, FLOAT_BINARY_OPS, ICMP_PREDICATES,
    INT_BINARY_OPS, Alloca, BinaryOp, Branch, Call, Cast, CondBranch,
    ElemPtr, FCmp, ICmp, Load, Phi, Ret, Select, Store, Switch, Unreachable,
)
from .module import BasicBlock, Function, Module
from .types import (
    DOUBLE, LABEL, VOID, ArrayType, FunctionType, IntType, PointerType, Type,
)
from .values import (
    ConstantArray, ConstantFloat, ConstantInt, ConstantNull, UndefValue, Value,
)


class ParseError(Exception):
    """Raised on malformed IR text."""

    def __init__(self, message: str, line_no: int | None = None):
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)


#: One token; the alternatives are tried in order, first match wins.
_TOKEN = r"""
    -?\d+\.\d+(?:e[+-]\d+)?        # float literal
  | 0x[0-9A-F]{16}                 # float literal, as its bits
  | -?\d+                          # integer literal
  | @[\w.$-]+                      # @name
  | %[\w.$-]+                      # %name
  | [A-Za-z_][\w.]*                # keyword / opcode / type
  | \.\.\.|->|[()\[\]{}=,*:]       # punctuation
"""
_TOKEN_RE = re.compile(_TOKEN, re.VERBOSE)
#: A line in one ``findall``: each item is a token, a ``;`` comment
#: running to the end of the line, or — where no token starts — the rest
#: of the line from the offending character on.  Only the last item can
#: be either of the latter two, since both run to the end of the line.
_SCAN_RE = re.compile(r"\s*(" + _TOKEN + r"|;.*|\S.*)", re.VERBOSE | re.DOTALL)
_MODULE_HEADER_RE = re.compile(r";\s*module\s+(\S+)$")
_STRUCT_DEF_RE = re.compile(r"%([\w.$-]+)\s*=\s*type\b")
_INT_TYPE_RE = re.compile(r"i\d+")
_FLOAT_RE = re.compile(r"-?\d+\.\d+(e[+-]\d+)?|0x[0-9A-F]{16}")
_INT_RE = re.compile(r"-?\d+")
_LABEL_RE = re.compile(r"([\w.$-]+):")
#: The type spellings a parse starts from; ``iN``, ``%S`` are added to it.
_BASE_TYPES: dict[str, Type] = {
    "void": VOID, "double": DOUBLE, "label": LABEL,
    "i1": IntType(1), "i8": IntType(8), "i32": IntType(32), "i64": IntType(64),
}
#: Tokens that, after ``(``, open a function type's parameter list rather
#: than a call's argument list (as do ``iN`` and ``%S``).
_TYPE_LIST_STARTS = (")", "...", "void", "double", "label", "[")
#: What the IR's constructors raise on what they refuse, and what a type
#: nested deeper than the stack raises.
_IR_ERRORS = (ValueError, TypeError, KeyError, IndexError, RecursionError)
_EOL = "unexpected end of line"
#: The ``...`` of a vararg parameter list, as a list item.
_VARARG = object()
_LEFTOVER = "tokens left over: "


def _tokenize(text: str, line_no: int) -> list[str]:
    tokens = _SCAN_RE.findall(text)
    if tokens:
        last = tokens[-1]
        if last[0] == ";":
            tokens.pop()
        elif _TOKEN_RE.fullmatch(last) is None:
            # Were the rest of the line one token, it would have matched.
            raise ParseError(f"unexpected character {last[0]!r}", line_no)
    return tokens


@gc_paused
def parse_module(text: str, name: str | None = None) -> Module:
    """Parse a complete module from text.

    When the caller does not name the module, the printer's
    ``; module NAME`` header line names it — so ``parse(print(m))``
    preserves the module name instead of collapsing it to "module".
    """
    lines = [raw.strip() for raw in text.splitlines()]
    if name is None:
        name = "module"
        for line in lines:
            if line:
                match = _MODULE_HEADER_RE.match(line)
                if match:
                    name = match.group(1)
                break
    reader = _Reader(Module(name))
    try:
        reader.read(lines)
    except _IR_ERRORS as error:
        raise ParseError(str(error), reader.line_no) from None
    return reader.module


class _Reader:
    """One parse: the line being read and the tables names resolve in.

    A line's tokens end in a ``None`` sentinel, so the token after a
    non-``None`` one can be looked at without a bounds check.
    """

    def __init__(self, module: Module):
        self.module = module
        self.line_no = 0
        self.types = dict(_BASE_TYPES)
        #: Pointer and array types by the ids of their parts (which they
        #: keep alive), so each is built once.
        self.pointers: dict[int, PointerType] = {}
        self.arrays: dict[tuple[int, int], ArrayType] = {}
        #: Body lines' tokens by text, so a recurring line is scanned once,
        #: and one string per distinct token for them all to share.
        self.scanned: dict[str, tuple] = {}
        self.spellings: dict[str, str] = {}
        #: The body being read: its locals (and the module's globals) by
        #: token, its blocks by name, placeholders for locals used above
        #: their definition (with the line of the first use), its phis.
        self.values: dict[str, Value] = {}
        self.blocks: dict[str, BasicBlock] = {}
        self.forward: dict[str, tuple[Value, int]] = {}
        self.phis: list[tuple[Phi, Type, list, int]] = []

    def fail(self, message: str):
        raise ParseError(message, self.line_no)

    def present(self, tok: str | None) -> str:
        if tok is None:
            self.fail(_EOL)
        return tok

    def expect(self, toks: tuple, i: int, want: str) -> int:
        got = toks[i]
        if got != want:
            self.fail(_EOL if got is None else f"expected {want!r}, got {got!r}")
        return i + 1

    def tokens(self, line: str) -> tuple[str | None, ...]:
        tokens = _tokenize(line, self.line_no)
        return (*map(self.spellings.setdefault, tokens, tokens), None)

    def done(self, toks: tuple, i: int) -> None:
        if toks[i] is not None:
            self.fail(_LEFTOVER + " ".join(toks[i:-1]))

    def sequence(self, toks: tuple, i: int, item, close: str) -> tuple[list, int]:
        """The comma-separated ``item``s from ``toks[i]`` up to ``close``
        (a ``_VARARG`` item ends the list), and the index after ``close``."""
        items = []
        if toks[i] != close:
            while True:
                value, i = item(toks, i)
                items.append(value)
                if value is _VARARG or toks[i] != ",":
                    break
                i += 1
        return items, self.expect(toks, i, close)

    # -- top level ---------------------------------------------------------
    def read(self, lines: list[str]) -> None:
        module = self.module
        # Struct names first, so a type may name a struct defined below.
        for line_no, line in enumerate(lines, 1):
            match = _STRUCT_DEF_RE.match(line)
            if match:
                self.line_no = line_no
                module.add_struct(match.group(1))
        self.types.update(("%" + name, st) for name, st in module.structs.items())
        # Bodies are gathered here and read once every function is known.
        bodies = []
        numbered = enumerate(lines, 1)
        for self.line_no, line in numbered:
            if not line or line[0] == ";":
                continue
            if line[0] == "%" and "= type" in line:
                self._struct(self.tokens(line))
            elif line[0] == "@" and ("= global" in line or "= constant" in line):
                self._global(self.tokens(line))
            elif line.startswith("declare"):
                self._function(self.tokens(line), "declare")
            elif line.startswith("define"):
                fn = self._function(self.tokens(line), "define")
                body, labels = [], []
                for line_no, line in numbered:
                    if line == "}":
                        break
                    if line and line[0] != ";":
                        label = None
                        if line[-1] == ":" and _LABEL_RE.fullmatch(line):
                            label = line[:-1]
                            labels.append((line_no, label))
                        body.append((line_no, line, label))
                else:  # self.line_no is still the header's
                    self.fail(f"function @{fn.name} is missing a closing brace")
                bodies.append((fn, body, labels))
            else:
                self.fail(f"unexpected top-level line: {line!r}")
        scope = {"@" + gv.name: gv for gv in module.globals.values()}
        scope.update(("@" + fn.name, fn) for fn in module.functions.values())
        for fn, body, labels in bodies:
            self._body(fn, body, labels, scope)

    def _struct(self, toks: tuple) -> None:
        i = 1
        for want in ("=", "type", "{"):
            i = self.expect(toks, i, want)
        fields, i = self.sequence(toks, i, self.type, "}")
        self.done(toks, i)
        self.module.structs[toks[0][1:]].set_body(fields)

    def _global(self, toks: tuple) -> None:
        kind = self.present(toks[self.expect(toks, 1, "=")])
        if kind not in ("global", "constant"):
            self.fail(f"expected 'global' or 'constant', got {kind!r}")
        ty, i = self.type(toks, 3)
        initializer = None
        if toks[i] == "[":
            elements, i = self.sequence(toks, i + 1, self._element, "]")
            initializer = ConstantArray(ty, elements)
        elif toks[i] is not None:
            initializer = self.constant(toks[i], ty)
            i += 1
        self.done(toks, i)
        self.module.add_global(toks[0][1:], ty, initializer, constant=(kind == "constant"))

    def _element(self, toks: tuple, i: int) -> tuple[Value, int]:
        ty, i = self.type(toks, i)
        return self.constant(toks[i], ty), i + 1

    def _function(self, toks: tuple, keyword: str) -> Function:
        """A ``declare`` line, or a ``define`` line up to its ``{``."""
        name = self.present(toks[self.expect(toks, 0, keyword)])
        if not name.startswith("@"):
            self.fail(f"expected @name, got {name!r}")
        params, i = self.sequence(toks, self.expect(toks, 2, "("), self._param, ")")
        vararg = bool(params) and params[-1] is _VARARG
        ret, i = self.type(toks, self.expect(toks, i, "->"))
        attrs: set[str] = set()
        while toks[i] is not None and toks[i] != "{":
            attrs.add(toks[i])
            i += 1
        self.done(toks, self.expect(toks, i, "{") if keyword == "define" else i)
        params = params[:-1] if vararg else params
        fn = self.module.add_function(
            name[1:], FunctionType(ret, [ty for ty, _ in params], vararg),
            [arg for _, arg in params],
        )
        fn.attributes |= attrs
        return fn

    def _param(self, toks: tuple, i: int) -> tuple[tuple[Type, str] | object, int]:
        if toks[i] == "...":
            return _VARARG, i + 1
        ty, i = self.type(toks, i)
        arg = self.present(toks[i])
        if not arg.startswith("%"):
            self.fail(f"expected %argname, got {arg!r}")
        return (ty, arg[1:]), i + 1

    # -- types and constants -------------------------------------------------
    def type(self, toks: tuple, i: int) -> tuple[Type, int]:
        """The type spelled from ``toks[i]``, and the index after it."""
        ty = self.types.get(toks[i])
        if ty is None:
            ty, i = self._base_type(toks, i)
        else:
            i += 1
        while True:
            tok = toks[i]
            if tok == "*":
                pointer = self.pointers.get(id(ty))
                if pointer is None:
                    pointer = self.pointers[id(ty)] = PointerType(ty)
                ty = pointer
                i += 1
            elif tok == "(" and self._starts_type_list(toks[i + 1]):
                params, i = self.sequence(toks, i + 1, self._param_type, ")")
                vararg = bool(params) and params[-1] is _VARARG
                ty = FunctionType(ty, params[:-1] if vararg else params, vararg)
            else:
                return ty, i

    def _param_type(self, toks: tuple, i: int) -> tuple[Type | object, int]:
        return (_VARARG, i + 1) if toks[i] == "..." else self.type(toks, i)

    def _base_type(self, toks: tuple, i: int) -> tuple[Type, int]:
        """A base type not in the table yet: ``iN`` or an array."""
        tok = self.present(toks[i])
        if _INT_TYPE_RE.fullmatch(tok):
            ty = self.types[tok] = IntType(int(tok[1:]))
            return ty, i + 1
        if tok[0] == "%":
            self.fail(f"unknown struct {tok}")
        if tok != "[":
            self.fail(f"expected a type, got {tok!r}")
        count = self.present(toks[i + 1])
        if not _INT_RE.fullmatch(count):
            self.fail(f"expected an array length, got {count!r}")
        element, i = self.type(toks, self.expect(toks, i + 2, "x"))
        i = self.expect(toks, i, "]")
        key = (int(count), id(element))
        array = self.arrays.get(key)
        if array is None:
            array = self.arrays[key] = ArrayType(element, key[0])
        return array, i

    @staticmethod
    def _starts_type_list(tok: str | None) -> bool:
        return tok is not None and (
            tok in _TYPE_LIST_STARTS
            or _INT_TYPE_RE.fullmatch(tok) is not None
            or tok[0] == "%" and not tok[1:].isdigit()
        )

    def constant(self, tok: str | None, ty: Type) -> Value:
        if _INT_RE.fullmatch(self.present(tok)):
            if isinstance(ty, IntType):
                return ConstantInt(ty, int(tok))
            self.fail(f"integer constant {tok} cannot have type {ty}")
        if tok == "null":
            return ConstantNull(ty)
        if tok == "undef":
            return UndefValue(ty)
        if _FLOAT_RE.fullmatch(tok):
            if ty is not DOUBLE:
                self.fail(f"float constant {tok} cannot have type {ty}")
            if tok.startswith("0x"):
                (value,) = struct.unpack(">d", bytes.fromhex(tok[2:]))
                return ConstantFloat(ty, value)
            return ConstantFloat(ty, float(tok))
        self.fail(f"expected a constant, got {tok!r}")

    # -- function bodies -------------------------------------------------------
    def _body(self, fn: Function, body: list, labels: list, scope: dict) -> None:
        self.blocks = blocks = {}
        for line_no, name in labels:
            if name in blocks:
                self.line_no = line_no
                self.fail(f"duplicate block %{name}")
            blocks[name] = block = BasicBlock(name, fn)
            fn.blocks.append(block)
            fn._used_names.add(name)
        self.values = values = dict(scope)
        values.update(("%" + arg.name, arg) for arg in fn.args)
        self.forward = forward = {}
        self.phis = []
        scanned = self.scanned
        block = None
        for line_no, line, label in body:
            self.line_no = line_no
            if label is not None:
                block = blocks[label]
                continue
            if block is None:
                self.fail("instruction before first block label")
            toks = scanned.get(line)
            if toks is None:
                toks = scanned[line] = self.tokens(line)
            result = toks[0]
            if result[0] == "%" and toks[1] == "=":
                opcode, i = toks[2], 3
            else:
                opcode, i, result = result, 1, None
            build = _BUILDERS.get(opcode)
            if build is None:
                self.fail(f"unknown opcode {self.present(opcode)!r}")
            inst, i = build(self, opcode, toks, i)
            self.done(toks, i)
            inst.parent = block
            block.instructions.append(inst)
            if result is not None:
                inst.name = name = result[1:]
                values[result] = inst
                fn._used_names.add(name)
                if forward and result in forward:
                    self._resolve(forward.pop(result), inst)
        for phi, ty, incoming, self.line_no in self.phis:
            for tok, pred in incoming:
                value = values.get(tok)
                if value is None:
                    value = self.value(tok, ty)
                block = blocks.get(pred)
                if block is None:
                    self.fail(f"phi from unknown block %{pred}")
                phi.add_incoming(value, block)
        unresolved = sorted((tok, line) for tok, (p, line) in forward.items() if p.is_used())
        if unresolved:
            self.line_no = min(line for _, line in unresolved)
            names = ", ".join(tok for tok, _ in unresolved)
            self.fail(f"use of undefined value(s) {names} in @{fn.name}")

    def _resolve(self, forward: tuple[Value, int], inst: Value) -> None:
        """Point the uses of a forward reference at its definition."""
        placeholder, line_no = forward
        # A callee's placeholder is VOID: its definition types it.
        if placeholder.type is not VOID and placeholder.type != inst.type:
            self.line_no = line_no
            self.fail(f"%{inst.name} is {inst.type}, written as {placeholder.type}")
        placeholder.replace_all_uses_with(inst)

    def value(self, tok: str | None, ty: Type) -> Value:
        """The value ``tok`` names, where it is not (yet) in ``values``."""
        if self.present(tok)[0] == "%":
            entry = self.forward.get(tok)
            if entry is None:
                entry = self.forward[tok] = (Value(ty, tok[1:]), self.line_no)
            return entry[0]
        if tok[0] == "@":
            self.fail(f"use of undefined global {tok}")
        return self.constant(tok, ty)

    def typed(self, toks: tuple, i: int) -> tuple[Value, int]:
        """The ``type value`` operand at ``toks[i]``, and the index after it."""
        ty = self.types.get(toks[i])
        if ty is None or toks[i + 1] == "*" or toks[i + 1] == "(":
            ty, i = self.type(toks, i)
        else:
            i += 1
        tok = toks[i]
        value = self.values.get(tok)
        if value is None:
            value = self.value(tok, ty)
        if value.type is not ty and value.type != ty:
            self.fail(f"{tok} is {value.type}, written as {ty}")
        return value, i + 1

    def pair(self, toks: tuple, i: int) -> tuple[Value, Value, int]:
        """The operands ``T a, T b`` at ``toks[i]``, and the index after."""
        first, i = self.typed(toks, i)
        if toks[i] != ",":
            self.expect(toks, i, ",")
        second, i = self.typed(toks, i + 1)
        return first, second, i

    def label(self, toks: tuple, i: int) -> tuple[BasicBlock, int]:
        """The ``label %b`` at ``toks[i]``, and the index after it."""
        name = self.block_name(toks[self.expect(toks, i, "label")])
        block = self.blocks.get(name)
        if block is None:
            self.fail(f"branch to unknown block %{name}")
        return block, i + 2

    def block_name(self, tok: str | None) -> str:
        """The name a block reference ``%name`` spells."""
        if self.present(tok)[0] != "%":
            self.fail(f"expected a block reference %name, got {tok!r}")
        return tok[1:]

    # -- one builder per opcode: (reader, opcode, tokens, index of the first
    # operand) -> (instruction, index after its last operand) -----------------
    def _binary(self, op, toks, i):
        lhs, rhs, i = self.pair(toks, i)
        return BinaryOp(op, lhs, rhs), i

    def _compare(self, op, toks, i):
        predicate = toks[i]
        if predicate not in (ICMP_PREDICATES if op == "icmp" else FCMP_PREDICATES):
            self.fail(f"bad {op} predicate {self.present(predicate)!r}")
        lhs, rhs, i = self.pair(toks, i + 1)
        return (ICmp if op == "icmp" else FCmp)(predicate, lhs, rhs), i

    def _alloca(self, op, toks, i):
        ty, i = self.type(toks, i)
        return Alloca(ty), i

    def _load(self, op, toks, i):
        _, i = self.type(toks, i)  # the loaded type: the pointer's pointee
        ptr, i = self.typed(toks, self.expect(toks, i, ","))
        return Load(ptr), i

    def _store(self, op, toks, i):
        value, ptr, i = self.pair(toks, i)
        return Store(value, ptr), i

    def _elem_ptr(self, op, toks, i):
        base, i = self.typed(toks, i)
        indices = []
        while toks[i] == ",":
            index, i = self.typed(toks, i + 1)
            indices.append(index)
        return ElemPtr(base, indices), i

    def _call(self, op, toks, i):
        _, i = self.type(toks, i)  # the return type: the callee's
        callee = self.present(toks[i])
        args, i = self.sequence(toks, self.expect(toks, i + 1, "("), self.typed, ")")
        value = self.values.get(callee)
        return Call(self.value(callee, VOID) if value is None else value, args), i

    def _phi(self, op, toks, i):
        ty, i = self.type(toks, i)
        phi = Phi(ty)
        incoming = []
        while toks[i] == "[":
            tok = self.present(toks[i + 1])
            pred = self.block_name(toks[self.expect(toks, i + 2, ",")])
            i = self.expect(toks, i + 4, "]")
            incoming.append((tok, pred))
            if toks[i] == ",":
                i += 1
        self.phis.append((phi, ty, incoming, self.line_no))
        return phi, i

    def _select(self, op, toks, i):
        cond, i = self.typed(toks, i)
        true_value, false_value, i = self.pair(toks, self.expect(toks, i, ","))
        return Select(cond, true_value, false_value), i

    def _cast(self, op, toks, i):
        value, i = self.typed(toks, i)
        to_type, i = self.type(toks, self.expect(toks, i, "to"))
        return Cast(op, value, to_type), i

    def _br(self, op, toks, i):
        if toks[i] == "label":
            target, i = self.label(toks, i)
            return Branch(target), i
        cond, i = self.typed(toks, i)
        true_block, i = self.label(toks, self.expect(toks, i, ","))
        false_block, i = self.label(toks, self.expect(toks, i, ","))
        return CondBranch(cond, true_block, false_block), i

    def _switch(self, op, toks, i):
        value, i = self.typed(toks, i)
        default, i = self.label(toks, self.expect(toks, i, ","))
        i = self.expect(toks, i, "[")
        cases = []
        while toks[i] != "]":
            case, i = self._element(toks, i)
            target, i = self.label(toks, self.expect(toks, i, ","))
            cases.append((case, target))
        return Switch(value, default, cases), i + 1

    def _ret(self, op, toks, i):
        if toks[i] == "void":
            return Ret(None), i + 1
        value, i = self.typed(toks, i)
        return Ret(value), i

    def _unreachable(self, op, toks, i):
        return Unreachable(), i


_BUILDERS = {
    **dict.fromkeys(INT_BINARY_OPS, _Reader._binary),
    **dict.fromkeys(FLOAT_BINARY_OPS, _Reader._binary),
    **dict.fromkeys(CAST_OPS, _Reader._cast),
    "icmp": _Reader._compare, "fcmp": _Reader._compare,
    "alloca": _Reader._alloca, "load": _Reader._load, "store": _Reader._store,
    "elem_ptr": _Reader._elem_ptr, "call": _Reader._call, "phi": _Reader._phi,
    "select": _Reader._select, "br": _Reader._br, "switch": _Reader._switch,
    "ret": _Reader._ret, "unreachable": _Reader._unreachable,
}
