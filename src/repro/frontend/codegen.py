"""MiniC → repro IR code generation.

Classic two-pass lowering: declare structs, globals, and function
signatures first, then emit bodies.  Local variables are lowered to
``alloca`` + ``load``/``store``; the :mod:`repro.opt.mem2reg` pass then
promotes them to SSA registers (exactly the clang + ``-mem2reg`` shape the
paper's analyses expect).

Loop shapes are preserved faithfully: ``while``/``for`` produce while-shaped
loops (condition in the header), ``do``/``while`` produces do-while-shaped
loops (condition in the latch).  This distinction is load-bearing for the
governing-induction-variable experiment in Section 4.3.
"""

from __future__ import annotations

from .. import ir
from ..ir.builder import IRBuilder
from ..ir.intrinsics import INTRINSICS, declare_intrinsic
from . import ast
from .parser import parse_program


class CodegenError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")


class _LValue:
    """An addressable location (the result of lvalue expressions)."""

    __slots__ = ("pointer",)

    def __init__(self, pointer: ir.Value):
        self.pointer = pointer


class _LoopContext:
    __slots__ = ("break_block", "continue_block")

    def __init__(self, break_block: ir.BasicBlock, continue_block: ir.BasicBlock | None):
        self.break_block = break_block
        self.continue_block = continue_block


def compile_source(source: str, module_name: str = "minic") -> ir.Module:
    """Compile MiniC source text to a verified, SSA-form IR module."""
    from ..opt.mem2reg import promote_allocas_module
    from ..opt.simplify import simplify_module

    program = parse_program(source)
    module = CodeGenerator(module_name).generate(program)
    ir.verify_module(module)
    promote_allocas_module(module)
    simplify_module(module)
    ir.verify_module(module)
    return module


class CodeGenerator:
    def __init__(self, module_name: str = "minic"):
        self.module = ir.Module(module_name)
        self.builder = IRBuilder()
        self.fn: ir.Function | None = None
        self.locals: dict[str, _LValue] = {}
        self.local_types: dict[str, ir.Type] = {}
        self.loop_stack: list[_LoopContext] = []

    # -- entry point --------------------------------------------------------------
    def generate(self, program: ast.Program) -> ir.Module:
        for struct in program.structs:
            self.module.add_struct(struct.name)
        for struct in program.structs:
            fields = []
            for field_type, _, dims in struct.fields:
                fields.append(self._wrap_dims(self._resolve(field_type), dims))
            self.module.structs[struct.name].set_body(fields)
            self._struct_fields[struct.name] = [name for _, name, _ in struct.fields]
        # Declare functions before globals: a global's initializer may
        # reference a function (function-pointer tables).
        for fn_def in program.functions:
            self._declare_function(fn_def)
        for decl in program.globals:
            self._emit_global(decl)
        for fn_def in program.functions:
            if fn_def.body is not None:
                self._emit_function(fn_def)
        return self.module

    # -- types ---------------------------------------------------------------------
    def _resolve(self, ref) -> ir.Type:
        if isinstance(ref, ast.FuncPtrTypeRef):
            ret = self._resolve(ref.ret)
            params = [self._resolve(p) for p in ref.params]
            return ir.PointerType(ir.FunctionType(ret, params))
        base: ir.Type
        if ref.base == "int":
            base = ir.I64
        elif ref.base == "double":
            base = ir.DOUBLE
        elif ref.base == "char":
            base = ir.I8
        elif ref.base == "void":
            base = ir.VOID
        elif ref.base == "struct":
            struct = self.module.structs.get(ref.struct_name)
            if struct is None:
                raise CodegenError(f"unknown struct {ref.struct_name}", ref.line)
            base = struct
        else:  # pragma: no cover - the parser only produces the above
            raise CodegenError(f"unknown type {ref.base}", ref.line)
        for _ in range(ref.pointer_depth):
            if base.is_void():
                base = ir.I8  # void* becomes i8*
            base = ir.PointerType(base)
        return base

    @staticmethod
    def _wrap_dims(base: ir.Type, dims: list[int]) -> ir.Type:
        for dim in reversed(dims):
            base = ir.ArrayType(base, dim)
        return base

    # -- globals -------------------------------------------------------------------
    def _emit_global(self, decl: ast.GlobalDecl) -> None:
        ty = self._wrap_dims(self._resolve(decl.type_ref), decl.dims)
        initializer = None
        if decl.initializer is not None:
            initializer = self._constant_expr(decl.initializer, ty)
        self.module.add_global(decl.name, ty, initializer)

    def _constant_expr(self, expr: ast.Expr, ty: ir.Type) -> ir.Constant:
        if isinstance(expr, ast.IntLiteral):
            if ty.is_float():
                return ir.ConstantFloat(ty, float(expr.value))
            return ir.ConstantInt(ty, expr.value)
        if isinstance(expr, ast.FloatLiteral):
            return ir.ConstantFloat(ty, expr.value)
        if isinstance(expr, ast.UnaryExpr) and expr.op == "-":
            inner = self._constant_expr(expr.operand, ty)
            if isinstance(inner, ir.ConstantInt):
                return ir.ConstantInt(ty, -inner.value)
            return ir.ConstantFloat(ty, -inner.value)
        if isinstance(expr, ast.NameRef) and expr.name in self.module.functions:
            return self.module.functions[expr.name]
        raise CodegenError("global initializer must be a constant", expr.line)

    # -- functions ----------------------------------------------------------------
    def _declare_function(self, fn_def: ast.FunctionDef) -> None:
        if fn_def.name in self.module.functions:
            return  # forward declaration already seen
        ret = self._resolve(fn_def.ret)
        params = [self._resolve(p.type_ref) for p in fn_def.params]
        names = [p.name for p in fn_def.params]
        self.module.add_function(fn_def.name, ir.FunctionType(ret, params), names)

    def _emit_function(self, fn_def: ast.FunctionDef) -> None:
        self.fn = self.module.get_function(fn_def.name)
        self.locals = {}
        self.loop_stack = []
        entry = self.fn.add_block("entry")
        self.builder.position_at_end(entry)
        # Spill parameters so they are ordinary mutable variables.
        for arg in self.fn.args:
            slot = self.builder.alloca(arg.type, f"{arg.name}.addr")
            self.builder.store(arg, slot)
            self.locals[arg.name] = _LValue(slot)
        self._emit_stmt(fn_def.body)
        self._terminate_open_block()
        self.fn = None

    def _terminate_open_block(self) -> None:
        block = self.builder.block
        if block is not None and block.terminator is None:
            ret_ty = self.fn.return_type
            if ret_ty.is_void():
                self.builder.ret()
            elif ret_ty.is_float():
                self.builder.ret(ir.const_float(0.0))
            elif ret_ty.is_pointer():
                self.builder.ret(ir.ConstantNull(ret_ty))
            else:
                self.builder.ret(ir.ConstantInt(ret_ty, 0))

    # -- statements ----------------------------------------------------------------
    def _emit_stmt(self, stmt: ast.Stmt) -> None:
        if self.builder.block is not None and self.builder.block.terminator is not None:
            # Dead code after return/break: drop it (like clang's CFG cleanup).
            return
        if isinstance(stmt, ast.Block):
            outer = dict(self.locals)
            for inner in stmt.statements:
                self._emit_stmt(inner)
            self.locals = outer
        elif isinstance(stmt, ast.Declaration):
            self._emit_declaration(stmt)
        elif isinstance(stmt, ast.Assign):
            self._emit_assign(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self._rvalue(stmt.expr)
        elif isinstance(stmt, ast.If):
            self._emit_if(stmt)
        elif isinstance(stmt, ast.While):
            self._emit_while(stmt)
        elif isinstance(stmt, ast.DoWhile):
            self._emit_do_while(stmt)
        elif isinstance(stmt, ast.For):
            self._emit_for(stmt)
        elif isinstance(stmt, ast.SwitchStmt):
            self._emit_switch(stmt)
        elif isinstance(stmt, ast.Return):
            self._emit_return(stmt)
        elif isinstance(stmt, ast.Break):
            if not self.loop_stack:
                raise CodegenError("break outside a loop or switch", stmt.line)
            self.builder.br(self.loop_stack[-1].break_block)
        elif isinstance(stmt, ast.Continue):
            context = next(
                (c for c in reversed(self.loop_stack) if c.continue_block is not None),
                None,
            )
            if context is None:
                raise CodegenError("continue outside a loop", stmt.line)
            self.builder.br(context.continue_block)
        else:  # pragma: no cover
            raise CodegenError(f"cannot lower statement {stmt!r}", stmt.line)

    def _emit_declaration(self, decl: ast.Declaration) -> None:
        ty = self._wrap_dims(self._resolve(decl.type_ref), decl.dims)
        slot = self.builder.alloca(ty, decl.name)
        self.locals[decl.name] = _LValue(slot)
        if decl.initializer is not None:
            value = self._rvalue(decl.initializer)
            value = self._convert(value, ty, decl.line)
            self.builder.store(value, slot)

    def _emit_assign(self, stmt: ast.Assign) -> None:
        target = self._lvalue(stmt.target)
        value = self._rvalue(stmt.value)
        expected = target.pointer.type.pointee
        value = self._convert(value, expected, stmt.line)
        self.builder.store(value, target.pointer)

    def _emit_if(self, stmt: ast.If) -> None:
        cond = self._condition(stmt.cond)
        then_block = self.fn.add_block("if.then")
        merge_block = self.fn.add_block("if.end")
        else_block = self.fn.add_block("if.else") if stmt.otherwise else merge_block
        self.builder.cond_br(cond, then_block, else_block)
        self.builder.position_at_end(then_block)
        self._emit_stmt(stmt.then)
        if self.builder.block.terminator is None:
            self.builder.br(merge_block)
        if stmt.otherwise is not None:
            self.builder.position_at_end(else_block)
            self._emit_stmt(stmt.otherwise)
            if self.builder.block.terminator is None:
                self.builder.br(merge_block)
        self.builder.position_at_end(merge_block)

    def _emit_while(self, stmt: ast.While) -> None:
        header = self.fn.add_block("while.cond")
        body = self.fn.add_block("while.body")
        exit_block = self.fn.add_block("while.end")
        self.builder.br(header)
        self.builder.position_at_end(header)
        cond = self._condition(stmt.cond)
        self.builder.cond_br(cond, body, exit_block)
        self.builder.position_at_end(body)
        self.loop_stack.append(_LoopContext(exit_block, header))
        self._emit_stmt(stmt.body)
        self.loop_stack.pop()
        if self.builder.block.terminator is None:
            self.builder.br(header)
        self.builder.position_at_end(exit_block)

    def _emit_do_while(self, stmt: ast.DoWhile) -> None:
        body = self.fn.add_block("do.body")
        latch = self.fn.add_block("do.cond")
        exit_block = self.fn.add_block("do.end")
        self.builder.br(body)
        self.builder.position_at_end(body)
        self.loop_stack.append(_LoopContext(exit_block, latch))
        self._emit_stmt(stmt.body)
        self.loop_stack.pop()
        if self.builder.block.terminator is None:
            self.builder.br(latch)
        self.builder.position_at_end(latch)
        cond = self._condition(stmt.cond)
        self.builder.cond_br(cond, body, exit_block)
        self.builder.position_at_end(exit_block)

    def _emit_for(self, stmt: ast.For) -> None:
        if stmt.init is not None:
            self._emit_stmt(stmt.init)
        header = self.fn.add_block("for.cond")
        body = self.fn.add_block("for.body")
        step_block = self.fn.add_block("for.step")
        exit_block = self.fn.add_block("for.end")
        self.builder.br(header)
        self.builder.position_at_end(header)
        if stmt.cond is not None:
            cond = self._condition(stmt.cond)
            self.builder.cond_br(cond, body, exit_block)
        else:
            self.builder.br(body)
        self.builder.position_at_end(body)
        self.loop_stack.append(_LoopContext(exit_block, step_block))
        self._emit_stmt(stmt.body)
        self.loop_stack.pop()
        if self.builder.block.terminator is None:
            self.builder.br(step_block)
        self.builder.position_at_end(step_block)
        if stmt.step is not None:
            self._emit_stmt(stmt.step)
        self.builder.br(header)
        self.builder.position_at_end(exit_block)

    def _emit_switch(self, stmt: ast.SwitchStmt) -> None:
        selector = self._rvalue(stmt.selector)
        if not selector.type.is_integer():
            raise CodegenError("switch selector must be an integer", stmt.line)
        end_block = self.fn.add_block("switch.end")
        case_blocks = [
            self.fn.add_block(f"switch.case{i}") for i in range(len(stmt.cases))
        ]
        default_block = end_block
        cases: list[tuple[ir.ConstantInt, ir.BasicBlock]] = []
        for case, block in zip(stmt.cases, case_blocks):
            if case.value is None:
                default_block = block
            else:
                cases.append((ir.ConstantInt(selector.type, case.value), block))
        self.builder.switch(selector, default_block, cases)
        self.loop_stack.append(_LoopContext(end_block, None))
        for index, (case, block) in enumerate(zip(stmt.cases, case_blocks)):
            self.builder.position_at_end(block)
            for inner in case.statements:
                self._emit_stmt(inner)
            if self.builder.block.terminator is None:
                # Fallthrough to the next case, or to the end.
                target = (
                    case_blocks[index + 1] if index + 1 < len(case_blocks) else end_block
                )
                self.builder.br(target)
        self.loop_stack.pop()
        self.builder.position_at_end(end_block)

    def _emit_return(self, stmt: ast.Return) -> None:
        ret_ty = self.fn.return_type
        if stmt.value is None:
            if not ret_ty.is_void():
                raise CodegenError("return without a value", stmt.line)
            self.builder.ret()
            return
        value = self._rvalue(stmt.value)
        value = self._convert(value, ret_ty, stmt.line)
        self.builder.ret(value)

    # -- expressions ---------------------------------------------------------------
    def _condition(self, expr: ast.Expr) -> ir.Value:
        """Evaluate ``expr`` as an i1 condition."""
        if isinstance(expr, ast.BinaryExpr) and expr.op in ("&&", "||"):
            return self._short_circuit(expr)
        if isinstance(expr, ast.UnaryExpr) and expr.op == "!":
            inner = self._condition(expr.operand)
            return self.builder.xor(inner, ir.const_bool(True), "not")
        value = self._rvalue(expr)
        return self._to_bool(value)

    def _to_bool(self, value: ir.Value) -> ir.Value:
        ty = value.type
        if ty.is_integer() and ty.width == 1:
            return value
        if ty.is_integer():
            return self.builder.icmp("ne", value, ir.ConstantInt(ty, 0), "tobool")
        if ty.is_float():
            return self.builder.fcmp("one", value, ir.const_float(0.0), "tobool")
        if ty.is_pointer():
            return self.builder.icmp(
                "ne",
                self.builder.cast("ptrtoint", value, ir.I64, "ptoi"),
                ir.const_int(0),
                "tobool",
            )
        raise CodegenError(f"cannot convert {ty} to a condition", 0)

    def _short_circuit(self, expr: ast.BinaryExpr) -> ir.Value:
        lhs = self._condition(expr.lhs)
        lhs_block = self.builder.block
        rhs_block = self.fn.add_block("sc.rhs")
        merge_block = self.fn.add_block("sc.end")
        if expr.op == "&&":
            self.builder.cond_br(lhs, rhs_block, merge_block)
        else:
            self.builder.cond_br(lhs, merge_block, rhs_block)
        self.builder.position_at_end(rhs_block)
        rhs = self._condition(expr.rhs)
        rhs_exit = self.builder.block
        self.builder.br(merge_block)
        self.builder.position_at_end(merge_block)
        phi = self.builder.phi(ir.I1, "sc")
        phi.add_incoming(ir.const_bool(expr.op == "||"), lhs_block)
        phi.add_incoming(rhs, rhs_exit)
        return phi

    def _rvalue(self, expr: ast.Expr) -> ir.Value:
        if isinstance(expr, ast.IntLiteral):
            return ir.const_int(expr.value)
        if isinstance(expr, ast.FloatLiteral):
            return ir.const_float(expr.value)
        if isinstance(expr, ast.NameRef):
            return self._name_rvalue(expr)
        if isinstance(expr, ast.BinaryExpr):
            if expr.op in ("&&", "||"):
                cond = self._short_circuit(expr)
                return self.builder.cast("zext", cond, ir.I64, "sc.int")
            return self._binary_rvalue(expr)
        if isinstance(expr, ast.UnaryExpr):
            return self._unary_rvalue(expr)
        if isinstance(expr, ast.CallExpr):
            return self._call_rvalue(expr)
        if isinstance(expr, (ast.IndexExpr, ast.FieldExpr)):
            lvalue = self._lvalue(expr)
            pointee = lvalue.pointer.type.pointee
            if pointee.is_array():
                return self._decay(lvalue)
            return self.builder.load(lvalue.pointer, "ld")
        if isinstance(expr, ast.CastExpr):
            value = self._rvalue(expr.operand)
            return self._convert(value, self._resolve(expr.type_ref), expr.line,
                                 explicit=True)
        if isinstance(expr, ast.SizeofExpr):
            return ir.const_int(self._resolve(expr.type_ref).size_in_slots())
        raise CodegenError(f"cannot evaluate expression {expr!r}", expr.line)

    def _name_rvalue(self, expr: ast.NameRef) -> ir.Value:
        if expr.name in self.locals:
            slot = self.locals[expr.name]
            pointee = slot.pointer.type.pointee
            if pointee.is_array():
                return self._decay(slot)
            return self.builder.load(slot.pointer, expr.name)
        if expr.name in self.module.globals:
            gv = self.module.get_global(expr.name)
            if gv.allocated_type.is_array():
                return self._decay(_LValue(gv))
            return self.builder.load(gv, expr.name)
        if expr.name in self.module.functions:
            return self.module.functions[expr.name]
        if expr.name in INTRINSICS:
            return declare_intrinsic(self.module, expr.name)
        raise CodegenError(f"undefined name {expr.name!r}", expr.line)

    def _decay(self, lvalue: _LValue) -> ir.Value:
        """Array-to-pointer decay: ``T[N]*`` becomes ``T*``."""
        zero = ir.const_int(0)
        return self.builder.elem_ptr(lvalue.pointer, [zero, zero], "decay")

    def _binary_rvalue(self, expr: ast.BinaryExpr) -> ir.Value:
        if expr.op in ("==", "!=", "<", "<=", ">", ">="):
            return self._comparison(expr)
        lhs = self._rvalue(expr.lhs)
        rhs = self._rvalue(expr.rhs)
        # Pointer arithmetic: ptr + int / ptr - int.
        if lhs.type.is_pointer() and rhs.type.is_integer() and expr.op in ("+", "-"):
            offset = self._to_i64(rhs)
            if expr.op == "-":
                offset = self.builder.sub(ir.const_int(0), offset, "neg")
            return self.builder.elem_ptr(lhs, [offset], "ptradd")
        lhs, rhs, is_float = self._arith_promote(lhs, rhs, expr.line)
        op_map_int = {
            "+": "add", "-": "sub", "*": "mul", "/": "sdiv", "%": "srem",
            "&": "and", "|": "or", "^": "xor", "<<": "shl", ">>": "ashr",
        }
        op_map_float = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv"}
        if is_float:
            opcode = op_map_float.get(expr.op)
            if opcode is None:
                raise CodegenError(f"operator {expr.op} not valid on double", expr.line)
        else:
            opcode = op_map_int[expr.op]
        return self.builder.binary(opcode, lhs, rhs, "t")

    def _comparison(self, expr: ast.BinaryExpr) -> ir.Value:
        lhs = self._rvalue(expr.lhs)
        rhs = self._rvalue(expr.rhs)
        if lhs.type.is_pointer() or rhs.type.is_pointer():
            lhs = self._to_i64(lhs) if not lhs.type.is_pointer() else self.builder.cast(
                "ptrtoint", lhs, ir.I64, "p"
            )
            rhs = self._to_i64(rhs) if not rhs.type.is_pointer() else self.builder.cast(
                "ptrtoint", rhs, ir.I64, "p"
            )
        lhs, rhs, is_float = self._arith_promote(lhs, rhs, expr.line)
        if is_float:
            predicate = {"==": "oeq", "!=": "one", "<": "olt",
                         "<=": "ole", ">": "ogt", ">=": "oge"}[expr.op]
            result = self.builder.fcmp(predicate, lhs, rhs, "cmp")
        else:
            predicate = {"==": "eq", "!=": "ne", "<": "slt",
                         "<=": "sle", ">": "sgt", ">=": "sge"}[expr.op]
            result = self.builder.icmp(predicate, lhs, rhs, "cmp")
        return self.builder.cast("zext", result, ir.I64, "cmp.int")

    def _arith_promote(self, lhs: ir.Value, rhs: ir.Value, line: int):
        """Apply C-like usual arithmetic conversions; returns (lhs, rhs, is_float)."""
        if lhs.type.is_float() or rhs.type.is_float():
            if not lhs.type.is_float():
                lhs = self.builder.cast("sitofp", self._to_i64(lhs), ir.DOUBLE, "fp")
            if not rhs.type.is_float():
                rhs = self.builder.cast("sitofp", self._to_i64(rhs), ir.DOUBLE, "fp")
            return lhs, rhs, True
        if lhs.type.is_integer() and rhs.type.is_integer():
            if lhs.type.width != rhs.type.width:
                target = lhs.type if lhs.type.width > rhs.type.width else rhs.type
                if lhs.type != target:
                    lhs = self.builder.cast("sext", lhs, target, "ext")
                if rhs.type != target:
                    rhs = self.builder.cast("sext", rhs, target, "ext")
            return lhs, rhs, False
        raise CodegenError(
            f"invalid operand types {lhs.type} and {rhs.type}", line
        )

    def _to_i64(self, value: ir.Value) -> ir.Value:
        if value.type == ir.I64:
            return value
        if value.type.is_integer():
            if value.type.width < 64:
                return self.builder.cast("sext", value, ir.I64, "ext")
            return self.builder.cast("trunc", value, ir.I64, "trunc")
        raise CodegenError(f"expected an integer, got {value.type}", 0)

    def _unary_rvalue(self, expr: ast.UnaryExpr) -> ir.Value:
        if expr.op == "-":
            operand = self._rvalue(expr.operand)
            if operand.type.is_float():
                return self.builder.fsub(ir.const_float(0.0), operand, "neg")
            return self.builder.sub(ir.ConstantInt(operand.type, 0), operand, "neg")
        if expr.op == "!":
            cond = self._condition(expr.operand)
            inverted = self.builder.xor(cond, ir.const_bool(True), "not")
            return self.builder.cast("zext", inverted, ir.I64, "not.int")
        if expr.op == "*":
            pointer = self._rvalue(expr.operand)
            if not pointer.type.is_pointer():
                raise CodegenError("cannot dereference a non-pointer", expr.line)
            return self.builder.load(pointer, "deref")
        if expr.op == "&":
            lvalue = self._lvalue(expr.operand)
            return lvalue.pointer
        raise CodegenError(f"unknown unary operator {expr.op}", expr.line)

    def _call_rvalue(self, expr: ast.CallExpr) -> ir.Value:
        callee = self._callee_value(expr.callee)
        fnty = callee.type.pointee
        args = []
        for index, arg_expr in enumerate(expr.args):
            value = self._rvalue(arg_expr)
            if index < len(fnty.params):
                value = self._convert(value, fnty.params[index], expr.line)
            args.append(value)
        name = "" if fnty.ret.is_void() else "call"
        return self.builder.call(callee, args, name)

    def _callee_value(self, expr: ast.Expr) -> ir.Value:
        if isinstance(expr, ast.NameRef):
            name = expr.name
            if name in self.locals:
                slot = self.locals[name]
                if slot.pointer.type.pointee.is_pointer():
                    return self.builder.load(slot.pointer, f"{name}.fn")
            if name in self.module.globals:
                gv = self.module.get_global(name)
                if gv.allocated_type.is_pointer():
                    return self.builder.load(gv, f"{name}.fn")
            if name in self.module.functions:
                return self.module.functions[name]
            if name in INTRINSICS:
                return declare_intrinsic(self.module, name)
            raise CodegenError(f"call to undefined function {name!r}", expr.line)
        value = self._rvalue(expr)
        if not (value.type.is_pointer() and value.type.pointee.is_function()):
            raise CodegenError("called value is not a function", expr.line)
        return value

    # -- lvalues -------------------------------------------------------------------
    def _lvalue(self, expr: ast.Expr) -> _LValue:
        if isinstance(expr, ast.NameRef):
            if expr.name in self.locals:
                return self.locals[expr.name]
            if expr.name in self.module.globals:
                return _LValue(self.module.get_global(expr.name))
            raise CodegenError(f"undefined variable {expr.name!r}", expr.line)
        if isinstance(expr, ast.UnaryExpr) and expr.op == "*":
            pointer = self._rvalue(expr.operand)
            if not pointer.type.is_pointer():
                raise CodegenError("cannot dereference a non-pointer", expr.line)
            return _LValue(pointer)
        if isinstance(expr, ast.IndexExpr):
            return self._index_lvalue(expr)
        if isinstance(expr, ast.FieldExpr):
            return self._field_lvalue(expr)
        raise CodegenError("expression is not assignable", expr.line)

    def _index_lvalue(self, expr: ast.IndexExpr) -> _LValue:
        index = self._to_i64(self._rvalue(expr.index))
        # Indexing an array lvalue: stay inside the aggregate (GEP 0, i).
        base_lvalue = self._try_array_lvalue(expr.base)
        if base_lvalue is not None:
            zero = ir.const_int(0)
            ep = self.builder.elem_ptr(base_lvalue.pointer, [zero, index], "arrayidx")
            return _LValue(ep)
        base = self._rvalue(expr.base)
        if not base.type.is_pointer():
            raise CodegenError("cannot index a non-pointer", expr.line)
        ep = self.builder.elem_ptr(base, [index], "ptridx")
        return _LValue(ep)

    def _try_array_lvalue(self, expr: ast.Expr) -> _LValue | None:
        """If ``expr`` denotes an array in place, return its lvalue."""
        if isinstance(expr, ast.NameRef):
            slot = None
            if expr.name in self.locals:
                slot = self.locals[expr.name]
            elif expr.name in self.module.globals:
                slot = _LValue(self.module.get_global(expr.name))
            if slot is not None and slot.pointer.type.pointee.is_array():
                return slot
            return None
        if isinstance(expr, (ast.IndexExpr, ast.FieldExpr)):
            # e.g. matrix[i] of a 2-D array, or s.buffer
            saved = self.builder.block, self.builder.insert_before
            lvalue = self._lvalue(expr)
            if lvalue.pointer.type.pointee.is_array():
                return lvalue
            del saved
            return None
        return None

    def _field_lvalue(self, expr: ast.FieldExpr) -> _LValue:
        if expr.arrow:
            base = self._rvalue(expr.base)
            if not (base.type.is_pointer() and base.type.pointee.is_struct()):
                raise CodegenError("-> on a non-struct-pointer", expr.line)
            struct = base.type.pointee
            pointer = base
        else:
            lvalue = self._lvalue(expr.base)
            struct = lvalue.pointer.type.pointee
            if not struct.is_struct():
                raise CodegenError(". on a non-struct", expr.line)
            pointer = lvalue.pointer
        field_names = self._field_names(struct)
        if expr.field not in field_names:
            raise CodegenError(
                f"struct {struct.name} has no field {expr.field!r}", expr.line
            )
        index = field_names.index(expr.field)
        zero = ir.const_int(0)
        ep = self.builder.elem_ptr(
            pointer, [zero, ir.const_int(index)], f"{expr.field}.addr"
        )
        return _LValue(ep)

    def _field_names(self, struct: ir.StructType) -> list[str]:
        # Field names are only known at the AST level; cache per struct.
        cached = self._struct_fields.get(struct.name)
        if cached is None:
            raise CodegenError(f"unknown struct {struct.name}", 0)
        return cached

    @property
    def _struct_fields(self) -> dict[str, list[str]]:
        if not hasattr(self, "_struct_fields_map"):
            self._struct_fields_map: dict[str, list[str]] = {}
        return self._struct_fields_map

    # -- conversions --------------------------------------------------------------
    def _convert(
        self, value: ir.Value, target: ir.Type, line: int, explicit: bool = False
    ) -> ir.Value:
        ty = value.type
        if ty == target:
            return value
        if ty.is_integer() and target.is_integer():
            if ty.width < target.width:
                return self.builder.cast("sext", value, target, "conv")
            return self.builder.cast("trunc", value, target, "conv")
        if ty.is_integer() and target.is_float():
            return self.builder.cast("sitofp", self._to_i64(value), target, "conv")
        if ty.is_float() and target.is_integer():
            return self.builder.cast("fptosi", value, target, "conv")
        if ty.is_pointer() and target.is_pointer():
            return self.builder.cast("bitcast", value, target, "conv")
        if ty.is_pointer() and target.is_integer():
            if explicit:
                return self.builder.cast("ptrtoint", value, target, "conv")
        if ty.is_integer() and target.is_pointer():
            if explicit:
                return self.builder.cast("inttoptr", value, target, "conv")
        raise CodegenError(f"cannot convert {ty} to {target}", line)
