"""Parser for the textual repro IR.

Reads the form emitted by :mod:`repro.ir.printer`, completing the
round-trippable serialization the whole-IR tool and the golden tests rely
on.  The grammar is line-oriented: one global/struct/instruction per line,
functions delimited by ``define ... {`` / ``}``.
"""

from __future__ import annotations

import re

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
    DOUBLE,
    LABEL,
    VOID,
    ArrayType,
    FunctionType,
    IntType,
    PointerType,
    StructType,
    Type,
)
from .values import (
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    UndefValue,
    Value,
)


class ParseError(Exception):
    """Raised on malformed IR text."""

    def __init__(self, message: str, line_no: int | None = None):
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)


#: One token; the alternatives are tried in order, first match wins.
_TOKEN = r"""
    -?\d+\.\d+(?:e[+-]?\d+)?       # float literal
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
_FLOAT_RE = re.compile(r"-?\d+\.\d+(e[+-]?\d+)?")
_INT_RE = re.compile(r"-?\d+")
_LABEL_RE = re.compile(r"([\w.$-]+):")
_KEYWORD_TYPES: dict[str, Type] = {"void": VOID, "double": DOUBLE, "label": LABEL}


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


class _TokenStream:
    """One line's tokens, read left to right.  Takes ownership of
    ``tokens`` and ends it with a ``None`` sentinel, so reading never
    needs a bounds check."""

    def __init__(self, tokens: list[str], line_no: int):
        tokens.append(None)
        self.tokens = tokens
        self.pos = 0
        self.line_no = line_no

    def peek(self) -> str | None:
        return self.tokens[self.pos]

    def next(self) -> str:
        token = self.tokens[self.pos]
        if token is None:
            raise ParseError("unexpected end of line", self.line_no)
        self.pos += 1
        return token

    def expect(self, token: str) -> None:
        got = self.next()
        if got != token:
            raise ParseError(f"expected {token!r}, got {got!r}", self.line_no)

    def accept(self, token: str) -> bool:
        if self.tokens[self.pos] == token:
            self.pos += 1
            return True
        return False

    def at_end(self) -> bool:
        return self.tokens[self.pos] is None


@gc_paused
def parse_module(text: str, name: str | None = None) -> Module:
    """Parse a complete module from text.

    When the caller does not name the module, the printer's
    ``; module NAME`` header line names it — so ``parse(print(m))``
    preserves the module name instead of collapsing it to "module".
    """
    lines = text.splitlines()
    if name is None:
        name = "module"
        for raw in lines:
            stripped = raw.strip()
            if not stripped:
                continue
            match = _MODULE_HEADER_RE.match(stripped)
            if match:
                name = match.group(1)
            break
    module = Module(name)
    # Pre-scan for struct names so struct types can be referenced before
    # their definition line.
    for raw in lines:
        stripped = raw.strip()
        match = _STRUCT_DEF_RE.match(stripped)
        if match:
            module.add_struct(match.group(1))
    parser = _ModuleParser(module, lines)
    parser.run()
    return module


class _ModuleParser:
    def __init__(self, module: Module, lines: list[str]):
        self.module = module
        self.lines = lines
        self.index = 0
        #: function-body text gathered on a first pass, parsed on a second
        #: pass so cross-function references (calls) resolve.
        self.pending_bodies: list[tuple[Function, list[tuple[int, str]]]] = []

    def run(self) -> None:
        while self.index < len(self.lines):
            line_no = self.index + 1
            stripped = self.lines[self.index].strip()
            self.index += 1
            if not stripped or stripped.startswith(";"):
                continue
            if stripped.startswith("%") and "= type" in stripped:
                self._parse_struct(stripped, line_no)
            elif stripped.startswith("@") and ("= global" in stripped or "= constant" in stripped):
                self._parse_global(stripped, line_no)
            elif stripped.startswith("declare"):
                self._parse_declare(stripped, line_no)
            elif stripped.startswith("define"):
                self._collect_define(stripped, line_no)
            else:
                raise ParseError(f"unexpected top-level line: {stripped!r}", line_no)
        for fn, body in self.pending_bodies:
            _FunctionBodyParser(self.module, fn, body).run()

    # -- top-level entities ---------------------------------------------------
    def _parse_struct(self, text: str, line_no: int) -> None:
        stream = _TokenStream(_tokenize(text, line_no), line_no)
        name = stream.next()[1:]
        stream.expect("=")
        stream.expect("type")
        stream.expect("{")
        fields: list[Type] = []
        if not stream.accept("}"):
            fields.append(_parse_type(stream, self.module))
            while stream.accept(","):
                fields.append(_parse_type(stream, self.module))
            stream.expect("}")
        self.module.structs[name].set_body(fields)

    def _parse_global(self, text: str, line_no: int) -> None:
        stream = _TokenStream(_tokenize(text, line_no), line_no)
        name = stream.next()[1:]
        stream.expect("=")
        kind = stream.next()
        if kind not in ("global", "constant"):
            raise ParseError(f"expected 'global' or 'constant', got {kind!r}", line_no)
        ty = _parse_type(stream, self.module)
        initializer = None
        if not stream.at_end():
            initializer = _parse_global_initializer(stream, ty, self.module)
        self.module.add_global(name, ty, initializer, constant=(kind == "constant"))

    def _parse_declare(self, text: str, line_no: int) -> None:
        stream = _TokenStream(_tokenize(text, line_no), line_no)
        stream.expect("declare")
        name, fnty, arg_names, attrs = _parse_signature(stream, self.module)
        fn = self.module.add_function(name, fnty, arg_names)
        fn.attributes |= attrs

    def _collect_define(self, header: str, line_no: int) -> None:
        stream = _TokenStream(_tokenize(header, line_no), line_no)
        stream.expect("define")
        name, fnty, arg_names, attrs = _parse_signature(stream, self.module)
        stream.expect("{")
        fn = self.module.add_function(name, fnty, arg_names)
        fn.attributes |= attrs
        body: list[tuple[int, str]] = []
        while self.index < len(self.lines):
            body_line_no = self.index + 1
            stripped = self.lines[self.index].strip()
            self.index += 1
            if stripped == "}":
                self.pending_bodies.append((fn, body))
                return
            if stripped and not stripped.startswith(";"):
                body.append((body_line_no, stripped))
        raise ParseError(f"function @{name} is missing a closing brace", line_no)


def _parse_signature(
    stream: _TokenStream, module: Module
) -> tuple[str, FunctionType, list[str], set[str]]:
    name_token = stream.next()
    if not name_token.startswith("@"):
        raise ParseError(f"expected @name, got {name_token!r}", stream.line_no)
    stream.expect("(")
    param_types: list[Type] = []
    arg_names: list[str] = []
    vararg = False
    if not stream.accept(")"):
        while True:
            if stream.accept("..."):
                vararg = True
                break
            param_types.append(_parse_type(stream, module))
            arg_token = stream.next()
            if not arg_token.startswith("%"):
                raise ParseError(f"expected %argname, got {arg_token!r}", stream.line_no)
            arg_names.append(arg_token[1:])
            if not stream.accept(","):
                break
        stream.expect(")")
    stream.expect("->")
    ret = _parse_type(stream, module)
    attrs: set[str] = set()
    while not stream.at_end() and stream.peek() != "{":
        attrs.add(stream.next())
    return name_token[1:], FunctionType(ret, param_types, vararg), arg_names, attrs


def _parse_type(stream: _TokenStream, module: Module) -> Type:
    token = stream.next()
    base: Type
    if token in _KEYWORD_TYPES:
        base = _KEYWORD_TYPES[token]
    elif _INT_TYPE_RE.fullmatch(token):
        base = IntType(int(token[1:]))
    elif token.startswith("%"):
        name = token[1:]
        if name not in module.structs:
            raise ParseError(f"unknown struct %{name}", stream.line_no)
        base = module.structs[name]
    elif token == "[":
        count = int(stream.next())
        stream.expect("x")
        element = _parse_type(stream, module)
        stream.expect("]")
        base = ArrayType(element, count)
    else:
        raise ParseError(f"expected a type, got {token!r}", stream.line_no)
    # Pointer and function-type suffixes: `T*`, `T (params...)`.
    while True:
        suffix = stream.peek()
        if suffix == "*":
            stream.pos += 1
            base = PointerType(base)
        elif suffix == "(" and _looks_like_function_type(stream):
            stream.expect("(")
            params: list[Type] = []
            vararg = False
            if not stream.accept(")"):
                while True:
                    if stream.accept("..."):
                        vararg = True
                        break
                    params.append(_parse_type(stream, module))
                    if not stream.accept(","):
                        break
                stream.expect(")")
            base = FunctionType(base, params, vararg)
        else:
            return base


def _looks_like_function_type(stream: _TokenStream) -> bool:
    """Disambiguate ``T (...)`` function types from call argument lists."""
    # The next token after '(' must start a type or be ')' or '...'.
    nxt = stream.tokens[stream.pos + 1]
    if nxt is None:
        return False
    return (
        nxt in (")", "...", "void", "double", "label", "[")
        or bool(_INT_TYPE_RE.fullmatch(nxt))
        or nxt.startswith("%") and nxt[1:] and not nxt[1:].isdigit()
    )


def _parse_global_initializer(stream: _TokenStream, ty: Type, module: Module):
    token = stream.peek()
    if token == "[":
        stream.next()
        elements = []
        if not stream.accept("]"):
            while True:
                elem_ty = _parse_type(stream, module)
                elem = _parse_constant(stream, elem_ty)
                elements.append(elem)
                if not stream.accept(","):
                    break
            stream.expect("]")
        from .values import ConstantArray

        return ConstantArray(ty, elements)
    return _parse_constant(stream, ty)


def _parse_constant(stream: _TokenStream, ty: Type) -> Value:
    token = stream.next()
    if token == "null":
        return ConstantNull(ty)
    if token == "undef":
        return UndefValue(ty)
    if _FLOAT_RE.fullmatch(token):
        return ConstantFloat(ty, float(token))
    if _INT_RE.fullmatch(token):
        if ty.is_float():
            return ConstantFloat(ty, float(token))
        return ConstantInt(ty, int(token))
    raise ParseError(f"expected a constant, got {token!r}", stream.line_no)


class _FunctionBodyParser:
    """Parses the body of one function (second pass)."""

    def __init__(self, module: Module, fn: Function, body: list[tuple[int, str]]):
        self.module = module
        self.fn = fn
        self.body = body
        self.values: dict[str, Value] = {arg.name: arg for arg in fn.args}
        self.blocks: dict[str, BasicBlock] = {}
        #: phi fixups: (phi, [(value_token, value_type, block_name)])
        self.phi_fixups: list[tuple[Phi, list[tuple[str, Type, str]]]] = []
        #: Forward references: SSA dominance is block-order independent, so
        #: a textually-later definition may be used earlier.  Unknown names
        #: become placeholders, patched when the definition arrives.
        self.forward: dict[str, Value] = {}

    def run(self) -> None:
        # First pass: create all blocks so branches can resolve forward.
        for line_no, line in self.body:
            match = _LABEL_RE.fullmatch(line)
            if match:
                name = match.group(1)
                if name in self.blocks:
                    raise ParseError(f"duplicate block %{name}", line_no)
                block = BasicBlock(name, self.fn)
                self.fn.blocks.append(block)
                self.fn._used_names.add(name)
                self.blocks[name] = block
        current: BasicBlock | None = None
        for line_no, line in self.body:
            match = _LABEL_RE.fullmatch(line)
            if match:
                current = self.blocks[match.group(1)]
                continue
            if current is None:
                raise ParseError("instruction before first block label", line_no)
            self._parse_instruction(line, line_no, current)
        self._resolve_phis()
        unresolved = [n for n, p in self.forward.items() if p.is_used()]
        if unresolved:
            raise ParseError(
                f"use of undefined value(s) %{', %'.join(sorted(unresolved))} "
                f"in @{self.fn.name}"
            )

    # -- value resolution -------------------------------------------------------
    def _value(self, token: str, ty: Type, line_no: int) -> Value:
        if token.startswith("%"):
            name = token[1:]
            if name in self.values:
                return self.values[name]
            placeholder = self.forward.get(name)
            if placeholder is None:
                placeholder = Value(ty, name)
                self.forward[name] = placeholder
            return placeholder
        if token.startswith("@"):
            name = token[1:]
            if name in self.module.functions:
                return self.module.functions[name]
            if name in self.module.globals:
                return self.module.globals[name]
            raise ParseError(f"use of undefined global @{name}", line_no)
        stream = _TokenStream([token], line_no)
        return _parse_constant(stream, ty)

    def _typed_value(self, stream: _TokenStream) -> Value:
        ty = _parse_type(stream, self.module)
        token = stream.next()
        return self._value(token, ty, stream.line_no)

    def _define(self, name: str, value: Value) -> None:
        value.name = name
        self.values[name] = value
        self.fn._used_names.add(name)
        placeholder = self.forward.pop(name, None)
        if placeholder is not None:
            placeholder.replace_all_uses_with(value)

    # -- instruction dispatch ------------------------------------------------------
    def _parse_instruction(self, line: str, line_no: int, block: BasicBlock) -> None:
        stream = _TokenStream(_tokenize(line, line_no), line_no)
        first = stream.next()
        result_name: str | None = None
        if first.startswith("%") and stream.peek() == "=":
            result_name = first[1:]
            stream.expect("=")
            opcode = stream.next()
        else:
            opcode = first
        inst = self._build(opcode, stream, line_no, block)
        inst.parent = block
        block.instructions.append(inst)
        if result_name is not None:
            self._define(result_name, inst)

    def _build(self, opcode: str, stream: _TokenStream, line_no: int, block: BasicBlock):
        if opcode in INT_BINARY_OPS or opcode in FLOAT_BINARY_OPS:
            lhs = self._typed_value(stream)
            stream.expect(",")
            rhs = self._typed_value(stream)
            return BinaryOp(opcode, lhs, rhs)
        if opcode == "icmp":
            predicate = stream.next()
            if predicate not in ICMP_PREDICATES:
                raise ParseError(f"bad icmp predicate {predicate!r}", line_no)
            lhs = self._typed_value(stream)
            stream.expect(",")
            rhs = self._typed_value(stream)
            return ICmp(predicate, lhs, rhs)
        if opcode == "fcmp":
            predicate = stream.next()
            if predicate not in FCMP_PREDICATES:
                raise ParseError(f"bad fcmp predicate {predicate!r}", line_no)
            lhs = self._typed_value(stream)
            stream.expect(",")
            rhs = self._typed_value(stream)
            return FCmp(predicate, lhs, rhs)
        if opcode == "alloca":
            ty = _parse_type(stream, self.module)
            return Alloca(ty)
        if opcode == "load":
            _parse_type(stream, self.module)  # result type, redundant
            stream.expect(",")
            ptr = self._typed_value(stream)
            return Load(ptr)
        if opcode == "store":
            value = self._typed_value(stream)
            stream.expect(",")
            ptr = self._typed_value(stream)
            return Store(value, ptr)
        if opcode == "elem_ptr":
            base = self._typed_value(stream)
            indices = []
            while stream.accept(","):
                indices.append(self._typed_value(stream))
            return ElemPtr(base, indices)
        if opcode == "call":
            _parse_type(stream, self.module)  # return type, redundant
            callee_token = stream.next()
            stream.expect("(")
            args = []
            if not stream.accept(")"):
                while True:
                    args.append(self._typed_value(stream))
                    if not stream.accept(","):
                        break
                stream.expect(")")
            callee = self._value(callee_token, VOID, line_no)
            return Call(callee, args)
        if opcode == "phi":
            ty = _parse_type(stream, self.module)
            phi = Phi(ty)
            fixups: list[tuple[str, Type, str]] = []
            while stream.accept("["):
                value_token = stream.next()
                stream.expect(",")
                block_token = stream.next()
                stream.expect("]")
                fixups.append((value_token, ty, block_token[1:]))
                stream.accept(",")
            self.phi_fixups.append((phi, fixups))
            return phi
        if opcode == "select":
            cond = self._typed_value(stream)
            stream.expect(",")
            true_value = self._typed_value(stream)
            stream.expect(",")
            false_value = self._typed_value(stream)
            return Select(cond, true_value, false_value)
        if opcode in CAST_OPS:
            value = self._typed_value(stream)
            stream.expect("to")
            to_type = _parse_type(stream, self.module)
            return Cast(opcode, value, to_type)
        if opcode == "br":
            if stream.peek() == "label":
                stream.expect("label")
                target = self._block_ref(stream.next(), line_no)
                return Branch(target)
            cond = self._typed_value(stream)
            stream.expect(",")
            stream.expect("label")
            true_block = self._block_ref(stream.next(), line_no)
            stream.expect(",")
            stream.expect("label")
            false_block = self._block_ref(stream.next(), line_no)
            return CondBranch(cond, true_block, false_block)
        if opcode == "switch":
            value = self._typed_value(stream)
            stream.expect(",")
            stream.expect("label")
            default = self._block_ref(stream.next(), line_no)
            stream.expect("[")
            cases: list[tuple[ConstantInt, BasicBlock]] = []
            while not stream.accept("]"):
                case_ty = _parse_type(stream, self.module)
                const = _parse_constant(stream, case_ty)
                stream.expect(",")
                stream.expect("label")
                target = self._block_ref(stream.next(), line_no)
                cases.append((const, target))
            return Switch(value, default, cases)
        if opcode == "ret":
            if stream.peek() == "void":
                stream.next()
                return Ret(None)
            value = self._typed_value(stream)
            return Ret(value)
        if opcode == "unreachable":
            return Unreachable()
        raise ParseError(f"unknown opcode {opcode!r}", line_no)

    def _block_ref(self, token: str, line_no: int) -> BasicBlock:
        name = token[1:]
        if name not in self.blocks:
            raise ParseError(f"branch to unknown block %{name}", line_no)
        return self.blocks[name]

    def _resolve_phis(self) -> None:
        for phi, fixups in self.phi_fixups:
            for value_token, ty, block_name in fixups:
                value = self._value(value_token, ty, 0)
                phi.add_incoming(value, self.blocks[block_name])
