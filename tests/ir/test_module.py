"""Unit tests for modules, functions, and basic blocks."""

import pytest

from repro import ir
from repro.ir.builder import build_function
from repro.ir import (
    I64,
    VOID,
    Branch,
    FunctionType,
    Module,
    Ret,
    const_int,
)


class TestModule:
    def test_add_and_get_function(self):
        module = Module("m")
        fn = module.add_function("f", FunctionType(I64, [I64]), ["x"])
        assert module.get_function("f") is fn
        with pytest.raises(KeyError):
            module.get_function("nope")

    def test_duplicate_function_rejected(self):
        module = Module("m")
        module.add_function("f", FunctionType(VOID, []))
        with pytest.raises(ValueError):
            module.add_function("f", FunctionType(VOID, []))

    def test_declare_function_idempotent(self):
        module = Module("m")
        a = module.declare_function("ext", FunctionType(I64, [I64]))
        b = module.declare_function("ext", FunctionType(I64, [I64]))
        assert a is b

    def test_declare_conflicting_type(self):
        module = Module("m")
        module.declare_function("ext", FunctionType(I64, [I64]))
        with pytest.raises(TypeError):
            module.declare_function("ext", FunctionType(VOID, []))

    def test_globals(self):
        module = Module("m")
        gv = module.add_global("g", I64, const_int(1))
        assert module.get_global("g") is gv
        with pytest.raises(ValueError):
            module.add_global("g", I64)
        with pytest.raises(KeyError):
            module.get_global("h")

    def test_structs(self):
        module = Module("m")
        st = module.add_struct("point", [I64, I64])
        assert module.structs["point"] is st
        with pytest.raises(ValueError):
            module.add_struct("point")

    def test_remove_function(self, count_loop):
        module, fn, _ = count_loop
        module.remove_function("sum")
        assert "sum" not in module.functions

    def test_num_instructions(self, count_loop):
        module, fn, _ = count_loop
        assert module.num_instructions() == fn.num_instructions() > 0

    def test_defined_functions_skips_declarations(self):
        module = Module("m")
        module.declare_function("ext", FunctionType(VOID, []))
        fn = module.add_function("f", FunctionType(VOID, []))
        block = fn.add_block("entry")
        block.append(Ret())
        assert [f.name for f in module.defined_functions()] == ["f"]


class TestFunction:
    def test_arguments(self):
        module = Module("m")
        fn = module.add_function("f", FunctionType(I64, [I64, I64]), ["a", "b"])
        assert [a.name for a in fn.args] == ["a", "b"]
        assert fn.args[0].index == 0
        assert fn.args[1].parent is fn

    def test_declaration_vs_definition(self):
        module = Module("m")
        fn = module.add_function("f", FunctionType(VOID, []))
        assert fn.is_declaration()
        fn.add_block("entry")
        assert not fn.is_declaration()

    def test_entry_requires_body(self):
        module = Module("m")
        fn = module.add_function("f", FunctionType(VOID, []))
        with pytest.raises(ValueError):
            fn.entry

    def test_unique_block_names(self):
        module = Module("m")
        fn = module.add_function("f", FunctionType(VOID, []))
        b1 = fn.add_block("bb")
        b2 = fn.add_block("bb")
        assert b1.name != b2.name

    def test_unique_instruction_names(self):
        module = Module("m")
        fn = module.add_function("f", FunctionType(I64, []))
        builder, _ = build_function(fn)
        a = builder.add(const_int(1), const_int(2), "x")
        b = builder.add(const_int(3), const_int(4), "x")
        assert a.name != b.name

    def test_argument_names_reserved(self):
        module = Module("m")
        fn = module.add_function("f", FunctionType(I64, [I64]), ["x"])
        builder, _ = build_function(fn)
        inst = builder.add(fn.args[0], const_int(1), "x")
        assert inst.name != "x"

    def test_insert_block_after(self):
        module = Module("m")
        fn = module.add_function("f", FunctionType(VOID, []))
        a = fn.add_block("a")
        c = fn.add_block("c")
        b = fn.insert_block_after(a, "b")
        assert [blk.name for blk in fn.blocks] == ["a", "b", "c"]


class TestBasicBlock:
    def test_terminator_detection(self, count_loop):
        _, fn, v = count_loop
        assert v["header"].terminator is not None
        assert v["header"].terminator.opcode == "cond_br"

    def test_successors_predecessors(self, count_loop):
        _, fn, v = count_loop
        header, body, exit_block = v["header"], v["body"], v["exit"]
        assert set(id(s) for s in header.successors()) == {id(body), id(exit_block)}
        preds = header.predecessors()
        assert {p.name for p in preds} == {"entry", "body"}
        assert body.predecessors() == [header]

    def test_phis_iteration_stops_at_non_phi(self, count_loop):
        _, fn, v = count_loop
        header = v["header"]
        phis = list(header.phis())
        assert len(phis) == 2
        assert header.first_non_phi() is v["cmp"]

    def test_erase_block(self):
        module = Module("m")
        fn = module.add_function("f", FunctionType(VOID, []))
        a = fn.add_block("a")
        b = fn.add_block("b")
        a.append(Branch(b))
        b.append(Ret())
        # Erase b after redirecting a.
        a.terminator.erase_from_parent()
        a.append(Ret())
        b.erase()
        assert b not in fn.blocks
