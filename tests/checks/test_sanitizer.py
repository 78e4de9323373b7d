"""Memory sanitizer: use-before-init and static out-of-bounds."""

from repro import ir
from repro.ir.builder import build_function
from repro.checks.sanitizer import MemorySanitizer
from repro.core import Noelle


def sanitize(module):
    return MemorySanitizer().run(module, Noelle(module))


def scalar_fn(module):
    fn = module.add_function("f", ir.FunctionType(ir.I64, [ir.I64]), ["n"])
    builder, entry = build_function(fn)
    return fn, builder, entry


class TestUseBeforeInit:
    def test_load_before_any_store_is_flagged(self):
        module = ir.Module("m")
        fn, builder, _ = scalar_fn(module)
        slot = builder.alloca(ir.I64, "slot")
        value = builder.load(slot, "v")
        builder.ret(value)
        ir.verify_module(module)
        findings = sanitize(module)
        assert [d.severity for d in findings] == ["warning"]
        assert "before it is initialized" in findings[0].message
        assert findings[0].location == value.ref()

    def test_store_then_load_is_clean(self):
        module = ir.Module("m")
        fn, builder, _ = scalar_fn(module)
        slot = builder.alloca(ir.I64, "slot")
        builder.store(ir.const_int(1), slot)
        builder.ret(builder.load(slot, "v"))
        ir.verify_module(module)
        assert sanitize(module) == []

    def test_partial_initialization_is_flagged(self):
        # Only one of two paths stores, so at the join the slot is not
        # must-initialized (intersection meet).
        module = ir.Module("m")
        fn, builder, entry = scalar_fn(module)
        slot = builder.alloca(ir.I64, "slot")
        then = fn.add_block("then")
        join = fn.add_block("join")
        cond = builder.icmp("eq", fn.args[0], ir.const_int(0), "cond")
        builder.cond_br(cond, then, join)
        builder.position_at_end(then)
        builder.store(ir.const_int(7), slot)
        builder.br(join)
        builder.position_at_end(join)
        value = builder.load(slot, "v")
        builder.ret(value)
        ir.verify_module(module)
        findings = sanitize(module)
        assert [d.severity for d in findings] == ["warning"]
        assert findings[0].location == value.ref()

    def test_initialization_on_every_path_is_clean(self):
        module = ir.Module("m")
        fn, builder, entry = scalar_fn(module)
        slot = builder.alloca(ir.I64, "slot")
        then = fn.add_block("then")
        other = fn.add_block("other")
        join = fn.add_block("join")
        cond = builder.icmp("eq", fn.args[0], ir.const_int(0), "cond")
        builder.cond_br(cond, then, other)
        builder.position_at_end(then)
        builder.store(ir.const_int(7), slot)
        builder.br(join)
        builder.position_at_end(other)
        builder.store(ir.const_int(9), slot)
        builder.br(join)
        builder.position_at_end(join)
        builder.ret(builder.load(slot, "v"))
        ir.verify_module(module)
        assert sanitize(module) == []

    def test_initializing_callee_counts(self):
        # A call that may write the slot (per mod/ref) initializes it:
        # no false positive on interprocedural initialization.
        module = ir.Module("m")
        init = module.add_function(
            "init", ir.FunctionType(ir.VOID, [ir.pointer_to(ir.I64)]), ["p"]
        )
        init_builder, _ = build_function(init)
        init_builder.store(ir.const_int(3), init.args[0])
        init_builder.ret()
        fn, builder, _ = scalar_fn(module)
        slot = builder.alloca(ir.I64, "slot")
        builder.call(init, [slot])
        builder.ret(builder.load(slot, "v"))
        ir.verify_module(module)
        assert sanitize(module) == []


def array_module():
    module = ir.Module("m")
    module.add_global("arr", ir.ArrayType(ir.I64, 4))
    return module


class TestBounds:
    def test_constant_oob_load_is_an_error(self):
        module = array_module()
        fn, builder, _ = scalar_fn(module)
        arr = module.globals["arr"]
        ptr = builder.elem_ptr(arr, [ir.const_int(0), ir.const_int(7)], "p")
        builder.ret(builder.load(ptr, "v"))
        findings = sanitize(module)
        assert [d.severity for d in findings] == ["error"]
        assert "outside [0, 4)" in findings[0].message
        assert findings[0].location == ptr.ref()

    def test_oob_address_without_dereference_is_a_warning(self):
        module = array_module()
        fn, builder, _ = scalar_fn(module)
        arr = module.globals["arr"]
        builder.elem_ptr(arr, [ir.const_int(0), ir.const_int(4)], "p")
        builder.ret(fn.args[0])
        findings = [d for d in sanitize(module) if "out of bounds" in d.message]
        assert [d.severity for d in findings] == ["warning"]

    def test_nonzero_leading_index_steps_off_the_object(self):
        module = array_module()
        fn, builder, _ = scalar_fn(module)
        arr = module.globals["arr"]
        builder.elem_ptr(arr, [ir.const_int(1)], "p")
        builder.ret(fn.args[0])
        findings = [d for d in sanitize(module) if "out of bounds" in d.message]
        assert len(findings) == 1
        assert "steps off" in findings[0].message

    def test_in_bounds_access_is_clean(self):
        module = array_module()
        fn, builder, _ = scalar_fn(module)
        arr = module.globals["arr"]
        ptr = builder.elem_ptr(arr, [ir.const_int(0), ir.const_int(3)], "p")
        builder.ret(builder.load(ptr, "v"))
        ir.verify_module(module)
        assert sanitize(module) == []

    def test_variable_index_is_not_flagged(self):
        module = array_module()
        fn, builder, _ = scalar_fn(module)
        arr = module.globals["arr"]
        ptr = builder.elem_ptr(arr, [ir.const_int(0), fn.args[0]], "p")
        builder.ret(builder.load(ptr, "v"))
        ir.verify_module(module)
        assert sanitize(module) == []


#: A loop whose index runs 0..9 over rows of four: the range escapes.
SYMBOLIC_LOOP = """
@grid = global [4 x [4 x i64]]
define @main() -> i64 {{
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %i.next, %body ]
  %cmp = icmp slt i64 %i, i64 10
  br i1 %cmp, label %body, label %exit
body:
  %p = elem_ptr [4 x [4 x i64]]* @grid, i64 0, i64 {row}, i64 {column}
  store i64 1, i64* %p
  %i.next = add i64 %i, i64 1
  br label %header
exit:
  ret i64 0
}}
"""


class TestSymbolicBounds:
    """Under NOELLE_DEPTEST=1 an index's range over the loop is checked."""

    def findings(self, monkeypatch, row, column):
        monkeypatch.setenv("NOELLE_DEPTEST", "1")
        module = ir.parse_module(SYMBOLIC_LOOP.format(row=row, column=column))
        return [d for d in sanitize(module) if "out of bounds" in d.message]

    def test_escaping_recurrence_is_a_warning(self, monkeypatch):
        findings = self.findings(monkeypatch, "%i", "0")
        assert [d.severity for d in findings] == ["warning"]
        assert findings[0].message == (
            "elem_ptr %p is statically out of bounds: index range [0, 9] "
            "over the loop's iterations escapes [0, 4) of [4 x [4 x i64]] "
            "in @grid"
        )

    def test_constant_finding_wins_over_a_symbolic_one(self, monkeypatch):
        findings = self.findings(monkeypatch, "%i", "7")
        assert [d.severity for d in findings] == ["error"]
        assert findings[0].message == (
            "elem_ptr %p is statically out of bounds: index 7 outside "
            "[0, 4) of [4 x i64] in @grid"
        )
