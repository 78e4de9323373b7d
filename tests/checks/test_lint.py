"""IR lint: unreachable blocks, dead values, non-canonical phis."""

from repro import ir
from repro.ir.builder import build_function
from repro.checks.lint import IRLint
from repro.core import Noelle
from tests.conftest import build_count_loop


def lint(module):
    return IRLint().run(module, Noelle(module))


def test_canonical_loop_is_clean():
    module, _, _ = build_count_loop()
    assert lint(module) == []


def test_unreachable_block_is_a_warning():
    module = ir.Module("m")
    fn = module.add_function("f", ir.FunctionType(ir.VOID, []))
    builder, _ = build_function(fn)
    builder.ret()
    orphan = fn.add_block("orphan")
    builder.position_at_end(orphan)
    builder.ret()
    ir.verify_module(module)  # legal IR: the finding is advisory
    findings = lint(module)
    assert [d.severity for d in findings] == ["warning"]
    assert "unreachable" in findings[0].message
    assert findings[0].location == orphan.ref()


def test_dead_value_is_an_info():
    module = ir.Module("m")
    fn = module.add_function("f", ir.FunctionType(ir.I64, [ir.I64]), ["n"])
    builder, _ = build_function(fn)
    dead = builder.add(fn.args[0], ir.const_int(1), "dead")
    builder.ret(fn.args[0])
    ir.verify_module(module)
    findings = lint(module)
    assert [d.severity for d in findings] == ["info"]
    assert "never used" in findings[0].message
    assert findings[0].location == dead.ref()


def test_single_incoming_phi_is_an_info():
    module = ir.Module("m")
    fn = module.add_function("f", ir.FunctionType(ir.I64, [ir.I64]), ["n"])
    builder, entry = build_function(fn)
    tail = fn.add_block("tail")
    builder.br(tail)
    builder.position_at_end(tail)
    phi = builder.phi(ir.I64, "copy")
    phi.add_incoming(fn.args[0], entry)
    builder.ret(phi)
    ir.verify_module(module)
    findings = lint(module)
    assert [d.severity for d in findings] == ["info"]
    assert "single incoming edge" in findings[0].message


def test_identical_incoming_values_are_an_info():
    module = ir.Module("m")
    fn = module.add_function("f", ir.FunctionType(ir.I64, [ir.I64]), ["n"])
    builder, entry = build_function(fn)
    then = fn.add_block("then")
    join = fn.add_block("join")
    cond = builder.icmp("eq", fn.args[0], ir.const_int(0), "cond")
    builder.cond_br(cond, then, join)
    builder.position_at_end(then)
    builder.br(join)
    builder.position_at_end(join)
    phi = builder.phi(ir.I64, "same")
    phi.add_incoming(fn.args[0], entry)
    phi.add_incoming(fn.args[0], then)
    builder.ret(phi)
    ir.verify_module(module)
    findings = lint(module)
    assert [d.severity for d in findings] == ["info"]
    assert "identical incoming values" in findings[0].message


def test_lint_never_errors():
    # A module combining all three smells still yields no ERROR findings.
    module = ir.Module("m")
    fn = module.add_function("f", ir.FunctionType(ir.I64, [ir.I64]), ["n"])
    builder, _ = build_function(fn)
    builder.add(fn.args[0], ir.const_int(1), "dead")
    builder.ret(fn.args[0])
    orphan = fn.add_block("orphan")
    builder.position_at_end(orphan)
    builder.ret(fn.args[0])
    findings = lint(module)
    assert len(findings) == 2
    assert all(d.severity != "error" for d in findings)
