"""Verifier tests: each well-formedness rule catches its violation."""

import pytest

from repro import ir
from repro.ir.builder import build_function
from repro.ir import (
    I8,
    I64,
    VOID,
    BinaryOp,
    Branch,
    CondBranch,
    FunctionType,
    Module,
    Phi,
    Ret,
    Store,
    VerificationError,
    const_bool,
    const_int,
    verify_function,
    verify_module,
)
from tests.conftest import build_count_loop


def make_fn(ret=I64, params=(), name="f"):
    module = Module("m")
    fn = module.add_function(name, FunctionType(ret, list(params)))
    return module, fn


class TestBlockStructure:
    def test_valid_module_passes(self):
        module, _, _ = build_count_loop()
        verify_module(module)  # should not raise

    def test_empty_block(self):
        module, fn = make_fn(VOID)
        fn.add_block("entry")
        with pytest.raises(VerificationError, match="empty"):
            verify_function(fn)

    def test_missing_terminator(self):
        module, fn = make_fn()
        builder, _ = build_function(fn)
        builder.add(const_int(1), const_int(2))
        with pytest.raises(VerificationError, match="terminator"):
            verify_function(fn)

    def test_terminator_in_middle(self):
        module, fn = make_fn(VOID)
        builder, entry = build_function(fn)
        builder.ret()
        # Append manually past the terminator.
        inst = BinaryOp("add", const_int(1), const_int(2))
        inst.parent = entry
        entry.instructions.append(inst)
        ret2 = Ret()
        ret2.parent = entry
        entry.instructions.append(ret2)
        with pytest.raises(VerificationError):
            verify_function(fn)

    def test_branch_to_foreign_block(self):
        module, fn = make_fn(VOID)
        other_module, other_fn = make_fn(VOID, name="g")
        foreign = other_fn.add_block("far")
        foreign.append(Ret())
        builder, _ = build_function(fn)
        builder.br(foreign)
        with pytest.raises(VerificationError, match="not in this function"):
            verify_function(fn)


class TestPhiRules:
    def test_phi_missing_edge(self):
        module, _, values = build_count_loop()
        phi = values["i"]
        phi.remove_incoming(values["body"])
        with pytest.raises(VerificationError, match="missing edges"):
            verify_module(module)

    def test_phi_from_non_predecessor(self):
        module, fn, values = build_count_loop()
        phi = values["i"]
        phi.add_incoming(const_int(0), values["exit"])
        with pytest.raises(VerificationError, match="non-predecessor"):
            verify_module(module)

    def test_phi_not_grouped_at_top(self):
        module, fn, values = build_count_loop()
        header = values["header"]
        phi = values["i"]
        header.instructions.remove(phi)
        header.instructions.insert(2, phi)
        with pytest.raises(VerificationError, match="top"):
            verify_module(module)

    def test_phi_type_mismatch(self):
        module, fn, values = build_count_loop()
        phi = values["i"]
        phi.set_incoming_value_for(values["body"], const_bool(True))
        with pytest.raises(VerificationError):
            verify_module(module)

    def test_phi_duplicate_edge_from_same_predecessor(self):
        module, _, values = build_count_loop()
        phi = values["i"]
        phi.add_incoming(const_int(5), values["body"])
        with pytest.raises(VerificationError, match="duplicate edge"):
            verify_module(module)


class TestTypeRules:
    def test_binary_operand_mismatch(self):
        module, fn = make_fn(VOID)
        builder, _ = build_function(fn)
        bad = BinaryOp("add", const_int(1), const_int(1))
        bad.set_operand(1, ir.ConstantInt(I8, 1))
        bad.parent = builder.block
        builder.block.instructions.append(bad)
        builder.ret()
        with pytest.raises(VerificationError, match="mismatch"):
            verify_function(fn)

    def test_store_type_mismatch(self):
        module, fn = make_fn(VOID)
        builder, _ = build_function(fn)
        slot = builder.alloca(I64)
        store = builder.store(const_int(1), slot)
        store.set_operand(0, ir.ConstantInt(I8, 1))
        builder.ret()
        with pytest.raises(VerificationError, match="store type"):
            verify_function(fn)

    def test_ret_type_mismatch(self):
        module, fn = make_fn(I64)
        builder, _ = build_function(fn)
        builder.ret(ir.const_float(1.0))
        with pytest.raises(VerificationError, match="ret"):
            verify_function(fn)

    def test_ret_void_in_value_function(self):
        module, fn = make_fn(I64)
        builder, _ = build_function(fn)
        builder.ret()
        with pytest.raises(VerificationError, match="ret"):
            verify_function(fn)

    def test_call_argument_mismatch(self):
        module = Module("m")
        callee = module.add_function("callee", FunctionType(VOID, [I64]))
        fn = module.add_function("f", FunctionType(VOID, []))
        builder, _ = build_function(fn)
        call = builder.call(callee, [const_int(1)])
        call.set_operand(1, ir.const_float(1.0))
        builder.ret()
        with pytest.raises(VerificationError, match="argument"):
            verify_function(fn)

    def test_cond_br_requires_i1(self):
        module, fn = make_fn(VOID)
        builder, entry = build_function(fn)
        b = fn.add_block("b")
        b.append(Ret())
        branch = CondBranch(const_bool(True), b, b)
        branch.set_operand(0, const_int(1))
        entry.append(branch)
        with pytest.raises(VerificationError, match="i1"):
            verify_function(fn)


class TestSSADominance:
    def test_use_before_def_same_block(self):
        module, fn = make_fn()
        builder, entry = build_function(fn)
        a = builder.add(const_int(1), const_int(2), "a")
        b = builder.add(a, const_int(3), "b")
        builder.ret(b)
        # Move the definition after the use.
        entry.instructions.remove(a)
        entry.instructions.insert(1, a)
        with pytest.raises(VerificationError, match="before its definition"):
            verify_function(fn)

    def test_use_not_dominated(self):
        module, fn = make_fn()
        builder, entry = build_function(fn)
        then_block = fn.add_block("then")
        else_block = fn.add_block("else")
        builder.cond_br(const_bool(True), then_block, else_block)
        builder.position_at_end(then_block)
        defined_in_then = builder.add(const_int(1), const_int(2), "v")
        builder.ret(defined_in_then)
        builder.position_at_end(else_block)
        builder.ret(defined_in_then)  # not dominated!
        with pytest.raises(VerificationError, match="non-dominating"):
            verify_function(fn)

    def test_argument_of_other_function(self):
        module = Module("m")
        f = module.add_function("f", FunctionType(I64, [I64]), ["x"])
        g = module.add_function("g", FunctionType(I64, [I64]), ["y"])
        builder, _ = build_function(f)
        builder.ret(g.args[0])
        with pytest.raises(VerificationError, match="another function"):
            verify_function(f)

    def test_phi_incoming_dominance(self):
        # The incoming value must dominate the predecessor, not the phi.
        module, _, values = build_count_loop()
        verify_module(module)  # i.next defined in body dominates body edge

    def test_non_phi_self_use_rejected(self):
        module, fn = make_fn()
        builder, _ = build_function(fn)
        a = builder.add(const_int(1), const_int(2), "a")
        builder.ret(a)
        a.set_operand(1, a)
        with pytest.raises(VerificationError, match="uses its own result"):
            verify_function(fn)

    def test_phi_self_use_around_back_edge_is_legal(self):
        # A phi consuming its own result through a back edge is valid SSA.
        module, fn, values = build_count_loop()
        phi = values["acc"]
        phi.set_incoming_value_for(values["body"], phi)
        verify_module(module)
