"""Shared fixtures and IR-construction helpers for the test suite."""

import pytest

from repro import ir


def build_count_loop(module_name="m", n=10, while_shaped=True):
    """A canonical counted loop: ``for (i = 0; i < n; i++) acc += i``.

    Returns (module, fn, dict of named values).
    """
    module = ir.Module(module_name)
    fn = module.add_function("sum", ir.FunctionType(ir.I64, [ir.I64]), ["n"])
    builder, entry = ir.build_function(fn)
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
