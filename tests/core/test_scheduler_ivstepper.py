"""Scheduler (SCD) and IV stepper (IVS) tests."""

import pytest

from repro import ir
from repro.ir.builder import IRBuilder
from repro.core import Noelle
from repro.core.ivstepper import InductionVariableStepper, IVStepperError
from repro.frontend import compile_source
from repro.interp import Interpreter, run_module


HEADER_HEAVY_LOOP = """
int a[60];
int out[60];
int main() {
  int i;
  int s = 0;
  for (i = 0; i < 60; i = i + 1) {
    int x = a[i] * 3;
    int y = x + 7;
    out[i] = y;
  }
  return out[5];
}
"""


class TestBasicBlockScheduler:
    def test_reorder_preserves_semantics(self):
        module = compile_source(HEADER_HEAVY_LOOP)
        expected = Interpreter(module).run().return_value
        noelle = Noelle(module)
        fn = module.get_function("main")
        scheduler = noelle.basic_block_scheduler(fn)
        # Schedule with an adversarial priority: prefer expensive ops first.
        for block in fn.blocks:
            scheduler.schedule_block(
                block, priority=lambda i: -ord(i.opcode[0])
            )
        ir.verify_function(fn)
        assert Interpreter(module).run().return_value == expected

    def test_dependences_respected(self):
        module = compile_source(HEADER_HEAVY_LOOP)
        noelle = Noelle(module)
        fn = module.get_function("main")
        scheduler = noelle.basic_block_scheduler(fn)
        for block in fn.blocks:
            scheduler.schedule_block(block)
            for index, inst in enumerate(block.instructions):
                for operand in inst.operands:
                    if isinstance(operand, ir.Instruction) and operand.parent is block:
                        if not isinstance(inst, ir.Phi):
                            assert block.instructions.index(operand) < index


class TestGenericScheduler:
    def test_cannot_move_phi_or_terminator(self, count_loop):
        module, fn, v = count_loop
        noelle = Noelle(module)
        scheduler = noelle.scheduler(fn)
        assert not scheduler.can_move_to_end(v["i"], v["body"])
        assert not scheduler.can_move_to_end(v["header"].terminator, v["body"])

    def test_cannot_move_above_producer(self, count_loop):
        module, fn, v = count_loop
        noelle = Noelle(module)
        scheduler = noelle.scheduler(fn)
        # acc.next uses phis of the header: moving it to entry would
        # put it before its producers.
        assert not scheduler.can_move_to_end(v["acc_next"], v["entry"])

    def test_legal_move_executes(self):
        module = compile_source(HEADER_HEAVY_LOOP)
        expected = Interpreter(module).run().return_value
        noelle = Noelle(module)
        fn = module.get_function("main")
        # Find a movable arithmetic instruction and sink it within its block.
        moved = 0
        scheduler = noelle.scheduler(fn)
        for inst in list(fn.instructions()):
            if inst.opcode == "mul" and inst.parent is not None:
                if scheduler.move_to_end(inst, inst.parent):
                    moved += 1
        ir.verify_function(fn)
        assert Interpreter(module).run().return_value == expected


class TestLoopScheduler:
    def test_shrink_header_moves_non_control_work(self):
        source = """
int a[60];
int main() {
  int i = 0;
  int s = 0;
  while (i < 60) {
    s = s + a[i];
    i = i + 1;
  }
  return s;
}
"""
        module = compile_source(source)
        expected = Interpreter(module).run().return_value
        noelle = Noelle(module)
        fn = module.get_function("main")
        loop = noelle.loop_info(fn).loops()[0]
        header_size_before = len(loop.header.instructions)
        moved = noelle.loop_scheduler(fn).shrink_header(loop)
        ir.verify_function(fn)
        assert Interpreter(module).run().return_value == expected
        if moved:
            assert len(loop.header.instructions) < header_size_before


class TestIVStepper:
    def _loop_with_iv(self, source):
        module = compile_source(source)
        noelle = Noelle(module)
        loop = noelle.loops()[0]
        return module, loop, loop.governing_iv()

    def test_set_step_changes_trip_count(self):
        module, loop, iv = self._loop_with_iv(
            """
int hits = 0;
int main() {
  int i;
  for (i = 0; i < 12; i = i + 1) { hits = hits + 1; }
  return hits;
}
"""
        )
        stepper = InductionVariableStepper(iv)
        stepper.set_step(ir.const_int(3))
        ir.verify_function(loop.structure.function)
        assert Interpreter(module).run().return_value == 4  # 0,3,6,9

    def test_set_start(self):
        module, loop, iv = self._loop_with_iv(
            """
int hits = 0;
int main() {
  int i;
  for (i = 0; i < 10; i = i + 1) { hits = hits + 1; }
  return hits;
}
"""
        )
        InductionVariableStepper(iv).set_start(ir.const_int(6))
        assert Interpreter(module).run().return_value == 4  # 6..9

    def test_reverse_step(self):
        module, loop, iv = self._loop_with_iv(
            """
int hits = 0;
int main() {
  int i;
  for (i = 10; i > 0; i = i - 1) { hits = hits + 1; }
  return hits;
}
"""
        )
        stepper = InductionVariableStepper(iv)
        # Reversing -1 to +1 with condition i > 0 starting at 10 would run
        # away; instead verify the arithmetic rewiring on a copy.
        index = stepper.current_step_operand_index()
        before = stepper.update.operands[index]
        builder = IRBuilder()
        builder.position_before(stepper.update)
        stepper.reverse_step(builder)
        after = stepper.update.operands[index]
        assert isinstance(before, ir.ConstantInt)
        assert isinstance(after, ir.ConstantInt)
        assert after.value == -before.value

    def test_chunking_covers_iteration_space(self):
        # Simulate 3 cores by chunking three separate copies and summing.
        totals = []
        for core in range(3):
            module, loop, iv = self._loop_with_iv(
                """
int hits = 0;
int main() {
  int i;
  for (i = 0; i < 20; i = i + 1) { hits = hits + i; }
  return hits;
}
"""
            )
            stepper = InductionVariableStepper(iv)
            pre = loop.structure.pre_header()
            builder = IRBuilder()
            builder.position_before(pre.terminator)
            stepper.chunk_for_core(
                builder, ir.const_int(core), ir.const_int(3)
            )
            ir.verify_function(loop.structure.function)
            totals.append(Interpreter(module).run().return_value)
        assert sum(totals) == sum(range(20))

    def test_rejects_multi_update_ivs(self):
        module = compile_source(
            """
int main() {
  int i = 0;
  int s = 0;
  while (i < 30) {
    if (s % 2 == 0) { i = i + 1; } else { i = i + 2; }
    s = s + 1;
  }
  return s;
}
"""
        )
        noelle = Noelle(module)
        loops = noelle.loops()
        manager = loops[0].induction_variables
        for iv in manager.all_ivs():
            with pytest.raises(IVStepperError):
                InductionVariableStepper(iv)
