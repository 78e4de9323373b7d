"""IRBuilder positioning/insertion and intrinsics-surface tests."""

import pytest

from repro import ir
from repro.ir.builder import IRBuilder, build_function
from repro.ir.intrinsics import (
    ALLOCATOR_INTRINSICS,
    INTRINSICS,
    PRVG_INTRINSICS,
    PURE_INTRINSICS,
    declare_intrinsic,
    is_intrinsic,
)


class TestBuilderPositioning:
    def setup_method(self):
        self.module = ir.Module("b")
        self.fn = self.module.add_function("f", ir.FunctionType(ir.I64, []))
        self.builder, self.entry = build_function(self.fn)

    def test_position_before_inserts_in_order(self):
        a = self.builder.add(ir.const_int(1), ir.const_int(2), "a")
        c = self.builder.add(ir.const_int(5), ir.const_int(6), "c")
        self.builder.position_before(c)
        b = self.builder.add(a, ir.const_int(1), "b")
        names = [i.name for i in self.entry.instructions]
        assert names.index("a") < names.index("b") < names.index("c")

    def test_position_at_end_after_position_before(self):
        a = self.builder.add(ir.const_int(1), ir.const_int(2), "a")
        self.builder.position_before(a)
        self.builder.position_at_end(self.entry)
        b = self.builder.add(a, ir.const_int(3), "b")
        assert self.entry.instructions[-1] is b

    def test_phi_always_inserted_at_top(self):
        other = self.fn.add_block("other")
        self.builder.br(other)
        self.builder.position_at_end(other)
        inst = self.builder.add(ir.const_int(1), ir.const_int(2), "x")
        phi = self.builder.phi(ir.I64, "p")
        assert other.instructions[0] is phi
        assert other.instructions[1] is inst

    def test_all_binary_helpers(self):
        one, two = ir.const_int(1), ir.const_int(2)
        for helper in ("add", "sub", "mul", "sdiv", "srem", "and_", "or_",
                       "xor", "shl", "ashr"):
            inst = getattr(self.builder, helper)(one, two)
            assert isinstance(inst, ir.BinaryOp)
        f1, f2 = ir.const_float(1.0), ir.const_float(2.0)
        for helper in ("fadd", "fsub", "fmul", "fdiv"):
            inst = getattr(self.builder, helper)(f1, f2)
            assert isinstance(inst, ir.BinaryOp)

    def test_insert_without_position_fails(self):
        detached = IRBuilder()
        with pytest.raises(AssertionError):
            detached.add(ir.const_int(1), ir.const_int(2))


class TestIntrinsics:
    def test_family_classification(self):
        assert "sqrt" in PURE_INTRINSICS
        assert "malloc" in ALLOCATOR_INTRINSICS
        assert "rand_lcg" in PRVG_INTRINSICS
        assert "print_int" not in PURE_INTRINSICS

    def test_declare_sets_attributes(self):
        module = ir.Module("m")
        fn = declare_intrinsic(module, "sqrt")
        assert "pure" in fn.attributes
        assert is_intrinsic(fn)

    def test_declare_idempotent(self):
        module = ir.Module("m")
        a = declare_intrinsic(module, "malloc")
        b = declare_intrinsic(module, "malloc")
        assert a is b

    def test_unknown_intrinsic_rejected(self):
        module = ir.Module("m")
        with pytest.raises(KeyError):
            declare_intrinsic(module, "mystery_function")

    def test_every_intrinsic_has_interpreter_support(self):
        """Every declared intrinsic must be callable without raising
        'unknown external' (the classic drift bug between the table and
        the interpreter)."""
        from repro.interp.interp import INTRINSIC_COSTS

        for name in INTRINSICS:
            assert name in INTRINSIC_COSTS or name in (
                "rand", "srand", "exit",
            ) or INTRINSIC_COSTS.get(name, None) is not None

    def test_user_defined_function_not_intrinsic(self):
        module = ir.Module("m")
        fn = module.add_function("mine", ir.FunctionType(ir.VOID, []))
        fn.add_block("entry").append(ir.Ret())
        assert not is_intrinsic(fn)


class TestWorkloadRegistry:
    def test_duplicate_registration_rejected(self):
        from repro.workloads import all_workloads
        from repro.workloads.registry import Workload, register

        all_workloads()  # force the suites to load first
        with pytest.raises(ValueError):
            register(Workload("crc32", "mibench", "int main(){return 0;}",
                              "dup", False))

    def test_compile_returns_fresh_modules(self):
        from repro.workloads import get

        workload = get("bitcount")
        a = workload.compile()
        b = workload.compile()
        assert a is not b
        assert a.get_function("main") is not b.get_function("main")
