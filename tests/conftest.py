"""Shared fixtures and IR-construction helpers for the test suite."""

import gc

import pytest

from repro import ir
from repro.ir.builder import build_function


@pytest.fixture(autouse=True)
def _collector_left_as_found():
    """Fail a test that ends with the cyclic collector off when it started
    on: every builder that pauses it must resume it on every exit,
    including an injected fault raised inside the paused build."""
    enabled = gc.isenabled()
    yield
    if enabled and not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic collector disabled")


def build_count_loop(module_name="m", n=10, while_shaped=True):
    """A canonical counted loop: ``for (i = 0; i < n; i++) acc += i``.

    Returns (module, fn, dict of named values).
    """
    module = ir.Module(module_name)
    fn = module.add_function("sum", ir.FunctionType(ir.I64, [ir.I64]), ["n"])
    builder, entry = build_function(fn)
    header = fn.add_block("header")
    body = fn.add_block("body")
    exit_block = fn.add_block("exit")
    builder.br(header)
    builder.position_at_end(header)
    i = builder.phi(ir.I64, "i")
    acc = builder.phi(ir.I64, "acc")
    cmp = builder.icmp("slt", i, fn.args[0], "cmp")
    builder.cond_br(cmp, body, exit_block)
    builder.position_at_end(body)
    acc_next = builder.add(acc, i, "acc.next")
    i_next = builder.add(i, ir.const_int(1), "i.next")
    builder.br(header)
    builder.position_at_end(exit_block)
    builder.ret(acc)
    i.add_incoming(ir.const_int(0), entry)
    i.add_incoming(i_next, body)
    acc.add_incoming(ir.const_int(0), entry)
    acc.add_incoming(acc_next, body)
    ir.verify_module(module)
    values = {
        "entry": entry, "header": header, "body": body, "exit": exit_block,
        "i": i, "acc": acc, "cmp": cmp, "i_next": i_next,
        "acc_next": acc_next,
    }
    return module, fn, values


@pytest.fixture
def count_loop():
    return build_count_loop()


def insert_dead_add(fn) -> None:
    """Mutate ``fn`` in place: a dead add before the entry terminator —
    the minimal single-function change a transform would make."""
    block = fn.blocks[0]
    inst = ir.BinaryOp("add", ir.const_int(1), ir.const_int(2), "dead")
    inst.parent = block
    block.instructions.insert(len(block.instructions) - 1, inst)
    fn.assign_name(inst)


def compile_and_run(source, entry="main", args=None, step_limit=50_000_000):
    """Compile MiniC and execute; returns the ExecutionResult."""
    from repro.frontend import compile_source
    from repro.interp import Interpreter

    module = compile_source(source)
    return Interpreter(module, step_limit=step_limit).run(entry, args)


def outputs_match(a, b, rel=1e-9):
    """Output equality with float tolerance (parallel float reductions
    re-associate)."""
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if isinstance(x, float) or isinstance(y, float):
            scale = max(abs(float(x)), abs(float(y)), 1.0)
            if abs(float(x) - float(y)) > rel * scale:
                return False
        elif x != y:
            return False
    return True


#: An i8 IV that steps 100, 110, 120 and then wraps: ``slt 126`` first
#: fails on iteration 105, and the load reads what the store wrote three
#: iterations earlier.
WRAPPING_TRIP_IR = """
@a = global [300 x i64]
define @main() -> i64 {
entry:
  %base = elem_ptr [300 x i64]* @a, i64 0, i64 150
  br label %header
header:
  %i = phi i8 [ 100, %entry ], [ %i.next, %body ]
  %cmp = icmp slt i8 %i, i8 126
  br i1 %cmp, label %body, label %exit
body:
  %j = add i8 %i, i8 -30
  %src = elem_ptr i64* %base, i8 %j
  %v = load i64, i64* %src
  %w = add i64 %v, i64 1
  %dst = elem_ptr i64* %base, i8 %i
  store i64 %w, i64* %dst
  %i.next = add i8 %i, i8 10
  br label %header
exit:
  ret i64 0
}
"""

#: An i8 IV stepping by 3 until it equals 1, which it does only after
#: wrapping (171 iterations): 86 loads read a 7 stored 85 iterations
#: earlier, so it returns 602.
WRAPPING_INDEX_IR = """
@a = global [300 x i64]
define @main() -> i64 {
entry:
  %base = elem_ptr [300 x i64]* @a, i64 0, i64 150
  br label %header
header:
  %i = phi i8 [ 0, %entry ], [ %i.next, %body ]
  %s = phi i64 [ 0, %entry ], [ %s.next, %body ]
  %cmp = icmp ne i8 %i, i8 1
  br i1 %cmp, label %body, label %exit
body:
  %j = add i8 %i, i8 1
  %src = elem_ptr i64* %base, i8 %j
  %v = load i64, i64* %src
  %s.next = add i64 %s, i64 %v
  %dst = elem_ptr i64* %base, i8 %i
  store i64 7, i64* %dst
  %i.next = add i8 %i, i8 3
  br label %header
exit:
  ret i64 %s
}
"""
