"""Round-trip tests for the textual IR printer and parser."""

import struct

import pytest

from repro import ir
from repro.ir.builder import build_function
from repro.ir import ParseError, parse_module, print_module, verify_module
from tests.conftest import build_count_loop


def roundtrip(module):
    text = print_module(module)
    reparsed = parse_module(text, module.name)
    verify_module(reparsed)
    assert print_module(reparsed) == text
    return reparsed


class TestRoundTrip:
    def test_count_loop(self):
        module, _, _ = build_count_loop()
        roundtrip(module)

    def test_globals_and_structs(self):
        module = ir.Module("g")
        module.add_struct("pair", [ir.I64, ir.DOUBLE])
        module.add_global("scalar", ir.I64, ir.const_int(42))
        module.add_global("fscalar", ir.DOUBLE, ir.const_float(2.5))
        module.add_global("arr", ir.ArrayType(ir.I64, 3))
        module.add_global("konst", ir.I64, ir.const_int(7), constant=True)
        # Every double reads back as the same bits, a sign of zero and a
        # NaN's sign included.
        inf = float("inf")
        doubles = [1e20, 1e-05, 5e-324, 1.2345678901234568e+17, -0.0,
                   inf, -inf, float("nan"), inf * 0.0]
        for index, value in enumerate(doubles):
            module.add_global(f"d{index}", ir.DOUBLE, ir.const_float(value))
        reparsed = roundtrip(module)
        assert [
            struct.pack(">d", reparsed.globals[f"d{index}"].initializer.value)
            for index in range(len(doubles))
        ] == [struct.pack(">d", value) for value in doubles]

    def test_struct_field_access(self):
        module = ir.Module("s")
        st = module.add_struct("point", [ir.I64, ir.I64])
        fn = module.add_function("f", ir.FunctionType(ir.I64, []))
        builder, _ = build_function(fn)
        slot = builder.alloca(st, "p")
        field = builder.elem_ptr(slot, [ir.const_int(0), ir.const_int(1)], "y")
        builder.store(ir.const_int(3), field)
        loaded = builder.load(field, "v")
        builder.ret(loaded)
        verify_module(module)
        roundtrip(module)

    def test_function_pointers(self):
        module = ir.Module("fp")
        callee = module.add_function("callee", ir.FunctionType(ir.I64, [ir.I64]), ["x"])
        cb, _ = build_function(callee)
        cb.ret(callee.args[0])
        fn = module.add_function("caller", ir.FunctionType(ir.I64, []))
        builder, _ = build_function(fn)
        slot = builder.alloca(ir.PointerType(callee.function_type), "fp")
        builder.store(callee, slot)
        loaded = builder.load(slot, "target")
        result = builder.call(loaded, [ir.const_int(5)], "r")
        builder.ret(result)
        verify_module(module)
        roundtrip(module)

    def test_switch_and_casts(self):
        module = ir.Module("sw")
        fn = module.add_function("f", ir.FunctionType(ir.I64, [ir.I64]), ["x"])
        builder, entry = build_function(fn)
        one = fn.add_block("one")
        other = fn.add_block("other")
        builder.switch(fn.args[0], other, [(ir.ConstantInt(ir.I64, 1), one)])
        builder.position_at_end(one)
        narrowed = builder.cast("trunc", fn.args[0], ir.I8, "n")
        widened = builder.cast("sext", narrowed, ir.I64, "w")
        builder.ret(widened)
        builder.position_at_end(other)
        as_float = builder.cast("sitofp", fn.args[0], ir.DOUBLE, "f")
        back = builder.cast("fptosi", as_float, ir.I64, "b")
        builder.ret(back)
        verify_module(module)
        roundtrip(module)

    def test_declarations_and_attributes(self):
        module = ir.Module("d")
        fn = module.declare_function("pure_fn", ir.FunctionType(ir.DOUBLE, [ir.DOUBLE]))
        fn.attributes.add("pure")
        reparsed = roundtrip(module)
        assert "pure" in reparsed.get_function("pure_fn").attributes

    def test_select_and_float_ops(self):
        module = ir.Module("fl")
        fn = module.add_function("f", ir.FunctionType(ir.DOUBLE, [ir.DOUBLE]), ["x"])
        builder, _ = build_function(fn)
        doubled = builder.fmul(fn.args[0], ir.const_float(2.0), "d")
        is_big = builder.fcmp("ogt", doubled, ir.const_float(10.0), "big")
        result = builder.select(is_big, doubled, fn.args[0], "sel")
        builder.ret(result)
        verify_module(module)
        roundtrip(module)

    def test_negative_and_null_constants(self):
        module = ir.Module("n")
        fn = module.add_function("f", ir.FunctionType(ir.I64, []))
        builder, _ = build_function(fn)
        ptr_ty = ir.PointerType(ir.I64)
        slot = builder.alloca(ptr_ty, "s")
        builder.store(ir.ConstantNull(ir.PointerType(ir.I64)), slot)
        value = builder.add(ir.const_int(-5), ir.const_int(3), "v")
        builder.ret(value)
        verify_module(module)
        roundtrip(module)


class TestParseErrors:
    def test_unknown_opcode(self):
        text = """
define @f() -> void {
entry:
  wiggle i64 1, i64 2
  ret void
}
"""
        with pytest.raises(ParseError):
            parse_module(text)

    def test_undefined_value(self):
        text = """
define @f() -> i64 {
entry:
  ret i64 %nope
}
"""
        with pytest.raises(ParseError):
            parse_module(text)

    def test_branch_to_unknown_block(self):
        text = """
define @f() -> void {
entry:
  br label %missing
}
"""
        with pytest.raises(ParseError):
            parse_module(text)

    @pytest.mark.parametrize("old, new, line", [
        ("br label %exit", "br label @exit", 3),
        ("br label %exit", "br label xexit", 3),
        ("[ 1, %entry ]", "[ 1, xentry ]", 5),
    ])
    def test_a_block_reference_is_spelled_with_percent(self, old, new, line):
        text = """define @f() -> i64 {
entry:
  br label %exit
exit:
  %p = phi i64 [ 1, %entry ]
  ret i64 %p
}
"""
        parse_module(text)
        with pytest.raises(ParseError, match=f"^line {line}: expected a block"):
            parse_module(text.replace(old, new))

    def test_duplicate_block(self):
        text = """
define @f() -> void {
entry:
  ret void
entry:
  ret void
}
"""
        with pytest.raises(ParseError):
            parse_module(text)

    def test_missing_closing_brace(self):
        text = """
define @f() -> void {
entry:
  ret void
"""
        with pytest.raises(ParseError):
            parse_module(text)

    def test_duplicate_function(self):
        text = """
declare @f() -> void

declare @f() -> void
"""
        with pytest.raises(ParseError, match=r"^line 4: function @f already exists$"):
            parse_module(text)

    def test_unknown_struct(self):
        text = """
define @f(%mystery* %p) -> void {
entry:
  ret void
}
"""
        with pytest.raises(ParseError):
            parse_module(text)

    def test_comments_and_blank_lines_ignored(self):
        text = """
; leading comment

define @f() -> i64 {
entry:
  ; a comment inside
  ret i64 7
}
"""
        module = parse_module(text)
        assert module.get_function("f") is not None
