"""Interpreter semantics tests."""

import pytest

from repro import ir
from repro.frontend import compile_source
from repro.interp import (
    INTRINSIC_COSTS,
    Interpreter,
    InterpError,
    MemoryTrap,
    StepLimitExceeded,
    run_module,
)
from repro.runtime.machine import ParallelMachine
from tests.conftest import compile_and_run


class TestArithmeticSemantics:
    def test_division_semantics_match_c(self):
        assert compile_and_run("int main() { return 7 / 2; }").return_value == 3
        assert compile_and_run("int main() { return (0-7) / 2; }").return_value == -3
        assert compile_and_run("int main() { return (0-7) % 2; }").return_value == -1
        assert compile_and_run("int main() { return 7 % (0-2); }").return_value == 1

    def test_division_by_zero_is_error(self):
        module = compile_source("int main() { int z = 0; return 5 / z; }")
        with pytest.raises(Exception, match="division"):
            Interpreter(module).run()

    def test_integer_wrapping(self):
        # i64 overflow wraps (two's complement).
        result = compile_and_run(
            "int main() { int big = 9223372036854775807; return big + 1; }"
        )
        assert result.return_value == -(2**63)

    def test_shift_semantics(self):
        assert compile_and_run("int main() { return 3 << 4; }").return_value == 48
        assert compile_and_run("int main() { return (0-16) >> 2; }").return_value == -4

    def test_float_division_by_zero_is_inf(self):
        result = compile_and_run("double main() { double z = 0.0; return 1.0 / z; }")
        assert result.return_value == float("inf")


class TestMemorySemantics:
    def test_out_of_bounds_traps(self):
        result = compile_and_run(
            "int a[4];\nint main() { int i = 10; a[i] = 1; return 0; }"
        )
        assert result.trapped is not None

    def test_use_after_free_traps(self):
        result = compile_and_run(
            """
int main() {
  int *p = (int *)malloc(4);
  free((char *)p);
  return p[0];
}
"""
        )
        assert result.trapped is not None

    def test_double_free_traps(self):
        result = compile_and_run(
            """
int main() {
  char *p = malloc(4);
  free(p);
  free(p);
  return 0;
}
"""
        )
        assert result.trapped is not None

    def test_null_dereference_traps(self):
        module = compile_source("int main() { int *p = (int *)0; return *p; }")
        result = Interpreter(module).run()
        assert result.trapped is not None

    def test_guard_slot_between_allocations(self):
        # Writing one past an allocation must not corrupt the next one.
        result = compile_and_run(
            """
int main() {
  int a[2];
  int b[2];
  a[0] = 1; a[1] = 2; b[0] = 3; b[1] = 4;
  return a[0] + a[1] + b[0] + b[1];
}
"""
        )
        assert result.return_value == 10


class TestExecutionControls:
    def test_step_limit(self):
        module = compile_source(
            "int main() { int i = 0; while (1) { i = i + 1; } return i; }"
        )
        with pytest.raises(StepLimitExceeded):
            Interpreter(module, step_limit=1000).run()

    def test_exit_intrinsic(self):
        result = compile_and_run("int main() { exit(3); return 9; }")
        assert result.return_value == 3

    def test_cycle_accounting_monotonic(self):
        light = compile_and_run("int main() { return 1; }")
        heavy = compile_and_run(
            "int main() { int i; int s = 0; for (i = 0; i < 50; i = i + 1) { s = s + i; } return s; }"
        )
        assert heavy.cycles > light.cycles > 0
        assert heavy.steps > light.steps

    def test_mul_costs_more_than_add(self):
        adds = compile_and_run(
            "int main() { int i; int s = 1; for (i = 0; i < 50; i = i + 1) { s = s + 3; } return s; }"
        )
        muls = compile_and_run(
            "int main() { int i; int s = 1; for (i = 0; i < 50; i = i + 1) { s = s * 3; } return s % 1000; }"
        )
        assert muls.cycles > adds.cycles


class TestDeterminism:
    def test_prng_reproducible(self):
        source = """
int main() {
  srand(7);
  int a = rand_lcg();
  srand(7);
  int b = rand_lcg();
  return a - b;
}
"""
        assert compile_and_run(source).return_value == 0

    def test_generators_differ(self):
        source = """
int main() {
  srand(7);
  int a = rand_lcg();
  srand(7);
  int b = rand_xorshift();
  return a == b;
}
"""
        assert compile_and_run(source).return_value == 0

    def test_whole_runs_identical(self):
        source = """
int main() {
  int i; int s = 0;
  srand(99);
  for (i = 0; i < 20; i = i + 1) { s = s + rand_pcg() % 100; }
  print_int(s);
  return s;
}
"""
        a = compile_and_run(source)
        b = compile_and_run(source)
        assert a.output == b.output
        assert a.cycles == b.cycles


class TestIndirectCalls:
    def test_function_pointer_dispatch(self):
        result = compile_and_run(
            """
int sel = 2;
int add1(int x) { return x + 1; }
int mul2(int x) { return x * 2; }
int main() {
  int (*f)(int);
  if (sel == 1) { f = add1; } else { f = mul2; }
  return f(21);
}
"""
        )
        assert result.return_value == 42

    def test_call_through_table(self):
        result = compile_and_run(
            """
int a() { return 10; }
int b() { return 20; }
int (*chosen)(void) = b;
int main() {
  int (*f)(void);
  f = chosen;
  return f();
}
"""
        )
        assert result.return_value == 20


class TestIntrinsics:
    def test_math(self):
        result = compile_and_run(
            "double main() { return sqrt(16.0) + fabs(0.0 - 2.0) + floor(3.7); }"
        )
        assert result.return_value == pytest.approx(9.0)

    def test_pow_exp_log(self):
        result = compile_and_run(
            "double main() { return pow(2.0, 10.0) + log(exp(1.0)); }"
        )
        assert result.return_value == pytest.approx(1025.0)

    def test_clock_set_changes_weighted_time(self):
        module = compile_source(
            """
int main() {
  int i; int s = 0;
  clock_set(5);
  for (i = 0; i < 100; i = i + 1) { s = s + i; }
  return s;
}
"""
        )
        fast = Interpreter(module)
        fast.run()
        module2 = compile_source(
            """
int main() {
  int i; int s = 0;
  for (i = 0; i < 100; i = i + 1) { s = s + i; }
  return s;
}
"""
        )
        slow = Interpreter(module2)  # default clock period 10
        slow.run()
        assert fast.weighted_cycles < slow.weighted_cycles

    @pytest.mark.parametrize("engine", ("reference", "compiled"))
    def test_unknown_external_is_charged_then_refused(self, engine):
        module = ir.parse_module(
            "define @main() -> i64 {\nentry:\n  %v = call i64 @mystery()\n"
            "  ret i64 %v\n}\n\ndeclare @mystery() -> i64\n"
        )
        interp = Interpreter(module, engine=engine)
        with pytest.raises(InterpError, match="unknown external @mystery$"):
            interp.run()
        # the call's 10 cycles, then the default 20 of an external
        assert (interp.result.steps, interp.result.cycles) == (1, 30)

    def test_one_handler_table_per_class(self):
        """Every costed intrinsic has a handler in each table (the drift
        between the two is the classic bug); the machine overrides the
        dispatchers and HELIX markers and inherits the rest."""
        base, machine = Interpreter.INTRINSICS, ParallelMachine.INTRINSICS
        assert set(base) == set(machine) == set(INTRINSIC_COSTS)
        overridden = {name for name in base if machine[name] != base[name]}
        assert overridden == {
            "noelle_dispatch_doall", "noelle_dispatch_dswp",
            "noelle_dispatch_helix", "helix_seq_begin", "helix_seq_end",
            "helix_iter_boundary",
        }
        assert all(
            cost == INTRINSIC_COSTS[name]
            for table in (base, machine)
            for name, (cost, _handler) in table.items()
        )
