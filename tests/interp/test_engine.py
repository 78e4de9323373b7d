"""Execution-engine tests: compiled vs reference equivalence.

The compiled engine must be observationally identical to the reference
walker — same output, same return values, same trap messages, the same
step/cycle/weighted-cycle accounting at *every* budget boundary — and no
stale compiled code may survive a transform or a pass-manager rollback.
"""

import functools
import marshal
import os
import pickle
import sys

import pytest

from repro import cache, ir
from repro.core import profiler
from repro.core.noelle import Noelle
from repro.core.profiler import Profiler
from repro.frontend import compile_source
from repro.interp import Interpreter, InterpError, StepLimitExceeded
from repro.interp.interp import BlockProfile
from repro.interp.compiler import _Compiler
from repro.interp.engine import (
    engine_for,
    engine_mode,
    invalidate_module,
)
from repro.ir import parse_module
from repro.perf import STATS
from repro.robust.passmanager import PassManager
from repro.runtime.machine import ParallelMachine
from repro.tools.rm_lc_dependences import remove_loop_carried_dependences
from repro.workloads import all_workloads, get
from repro.xforms.doall import DOALL

_E2E = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "benchmarks", "e2e"
)
if _E2E not in sys.path:
    sys.path.insert(0, _E2E)

import bigmod  # noqa: E402  (benchmarks/e2e: the bigmod generator)

ENGINES = ("reference", "compiled")

#: A program exercising phis, calls, loads/stores, and float math — the
#: instruction mix whose accounting the two engines must agree on.
MIXED_SOURCE = """
int buf[8];

int helper(int x) {
  int s = 0;
  for (int i = 0; i < x; i = i + 1) {
    s = s + i;
    buf[i % 8] = s;
  }
  return s + buf[0];
}

int main() {
  int total = 0;
  for (int j = 0; j < 3; j = j + 1) {
    total = total + helper(j + 4);
  }
  print_int(total);
  return total;
}
"""


def _observables(module, engine, step_limit=50_000_000, block_profile=None):
    """Everything the engines must agree on, as one comparable tuple."""
    interp = Interpreter(module, step_limit=step_limit, engine=engine)
    interp.block_profile = block_profile
    raised = None
    try:
        result = interp.run()
    except StepLimitExceeded as error:
        raised = f"StepLimitExceeded: {error}"
        result = interp.result
    except InterpError as error:
        raised = f"{type(error).__name__}: {error}"
        result = interp.result
    return (
        raised,
        result.output,
        result.return_value,
        result.trapped,
        result.steps,
        result.cycles,
        interp.weighted_cycles,
    )


class TestEngineSelection:
    def test_mode_resolution(self):
        assert engine_mode() == "compiled"
        assert engine_mode("compiled") == "compiled"
        assert engine_mode("reference") == "reference"
        with pytest.raises(ValueError, match="jit"):
            engine_mode("jit")
        module = compile_source("int main() { return 1; }")
        assert Interpreter(module).engine is not None
        assert Interpreter(module, engine="reference").engine is None

    def test_shared_engine_per_module(self):
        module = compile_source("int main() { return 1; }")
        assert engine_for(module) is engine_for(module)


class TestDifferentialWorkloads:
    """Satellite: every registered workload, byte-identical observables."""

    @pytest.mark.parametrize(
        "workload", all_workloads(), ids=lambda w: w.name
    )
    def test_workload_equivalence(self, workload):
        module = workload.compile()
        reference = _observables(module, "reference", workload.step_limit)
        compiled = _observables(module, "compiled", workload.step_limit)
        assert compiled == reference
        # Same module again: the per-module code cache is hot.
        warm = _observables(module, "compiled", workload.step_limit)
        assert warm == reference

    def test_repeat_run_is_deterministic(self):
        module = get("blackscholes").compile()
        first = _observables(module, "compiled")
        second = _observables(module, "compiled")  # warm cache
        assert second == first


class TestStepBudgetBoundary:
    """Unit-granular charging must hit *exactly* the same
    StepLimitExceeded points as the per-instruction reference."""

    def test_every_budget_boundary(self):
        module = compile_source(MIXED_SOURCE, "boundary")
        raised, _, _, _, steps, _, _ = _observables(module, "reference")
        assert raised is None and steps > 50  # the sweep crosses units
        for limit in range(1, steps + 3):
            reference = _observables(module, "reference", limit)
            compiled = _observables(module, "compiled", limit)
            assert compiled == reference, f"diverged at step_limit={limit}"

    def test_limit_exceeded_is_off_by_none(self):
        module = compile_source(MIXED_SOURCE, "boundary2")
        _, _, _, _, steps, _, _ = _observables(module, "reference")
        for engine in ENGINES:
            exact = _observables(module, engine, steps)
            assert exact[0] is None  # the exact budget completes
            over = _observables(module, engine, steps - 1)
            assert over[0] == f"StepLimitExceeded: exceeded {steps - 1} steps"
            assert over[4] == steps  # charged the step that crossed


class TestTrapEquivalence:
    TRAPS = {
        "oob_store": "int a[4];\nint main() { int i = 9; a[i] = 1; return 0; }",
        "oob_load": "int a[4];\nint main() { int i = 9; return a[i]; }",
        "use_after_free": """
int main() {
  int *p = (int *)malloc(4);
  free((char *)p);
  return p[0];
}
""",
        "null_deref": "int main() { int *p = (int *)0; return *p; }",
        "div_by_zero": "int main() { int z = 0; return 5 / z; }",
        "rem_by_zero": "int main() { int z = 0; return 5 % z; }",
    }

    @pytest.mark.parametrize("name", sorted(TRAPS))
    def test_trap_byte_identical(self, name):
        module = compile_source(self.TRAPS[name], name)
        assert _observables(module, "compiled") == _observables(
            module, "reference"
        )


class TestParallelMachineEquivalence:
    def test_doall_cycles_match(self):
        runs = {}
        for engine in ENGINES:
            module = get("blackscholes").compile()
            noelle = Noelle(module)
            noelle.attach_profile(Profiler(module).profile())
            remove_loop_carried_dependences(noelle)
            assert DOALL(noelle, 8).run(0.001) >= 1
            machine = ParallelMachine(module, num_cores=8, engine=engine)
            result = machine.run()
            runs[engine] = (
                result.output, result.return_value, result.cycles,
                result.steps, result.trapped,
            )
        assert runs["compiled"] == runs["reference"]

    def test_profiler_counts_match(self, monkeypatch):
        counts = {}
        for engine in ENGINES:
            monkeypatch.setattr(
                profiler, "Interpreter",
                functools.partial(Interpreter, engine=engine),
            )
            module = compile_source(MIXED_SOURCE, "prof")
            profile = Profiler(module).profile()
            counts[engine] = {
                fn.name: profile.function_invocations(fn)
                for fn in module.defined_functions()
            }
        assert counts["compiled"] == counts["reference"]


class TestEngineCache:
    def test_compile_once_then_cache_hits(self):
        module = compile_source(MIXED_SOURCE, "cache")
        compiles0 = STATS.counters.get("engine.compiles", 0)
        Interpreter(module, engine="compiled").run()
        compiles1 = STATS.counters.get("engine.compiles", 0)
        assert compiles1 > compiles0  # cold: functions were compiled
        hits1 = STATS.counters.get("engine.cache_hits", 0)
        Interpreter(module, engine="compiled").run()
        assert STATS.counters.get("engine.compiles", 0) == compiles1
        assert STATS.counters.get("engine.cache_hits", 0) > hits1

    def test_per_function_invalidation_recompiles_one(self):
        module = compile_source(MIXED_SOURCE, "cache2")
        Interpreter(module, engine="compiled").run()
        before = STATS.counters.get("engine.compiles", 0)
        invalidate_module(module, module.functions["helper"])
        Interpreter(module, engine="compiled").run()
        assert STATS.counters.get("engine.compiles", 0) == before + 1

    def test_stats_report_engine_counters(self):
        module = compile_source("int main() { return 2; }", "stats")
        Interpreter(module, engine="compiled").run()
        for counter in ("engine.compiles", "engine.blocks_compiled"):
            assert STATS.counters.get(counter, 0) > 0
        Interpreter(module, engine="reference").run()
        assert STATS.counters.get("engine.blocks_reference", 0) > 0


class TestCacheCoherence:
    """No stale compiled code after transforms or rollbacks."""

    def test_transform_invalidates_compiled_code(self):
        module = compile_source(MIXED_SOURCE, "licm")
        noelle = Noelle(module)
        Interpreter(module, engine="compiled").run()  # warm the cache
        manager = PassManager(noelle, fault_plan=None)
        assert manager.run_registered("licm").ok
        # The transformed module's compiled execution must match its own
        # reference execution, not the pre-transform code.
        assert _observables(module, "compiled") == _observables(
            module, "reference"
        )

    def test_rollback_discards_compiled_code(self):
        module = compile_source(MIXED_SOURCE, "rollback")
        baseline = _observables(module, "compiled")
        manager = PassManager(Noelle(module), fault_plan=None)

        def bad_pass(noelle):
            fn = noelle.module.functions["helper"]
            block = fn.blocks[0]
            inst = ir.BinaryOp("add", ir.const_int(1), ir.const_int(2), "pad")
            inst.parent = block
            block.instructions.insert(len(block.instructions) - 1, inst)
            fn.assign_name(inst)
            invalidate_module(noelle.module, fn)
            # Cache the *mutated* body, then fail the transaction.
            Interpreter(noelle.module, engine="compiled").run()
            raise RuntimeError("injected failure after mutation")

        result = manager.run("bad-pass", bad_pass)
        assert result.rolled_back
        # Post-rollback, both engines must reproduce the pre-pass run.
        assert _observables(module, "compiled") == baseline
        assert _observables(module, "reference") == baseline


def _hydrated_twin(module, text):
    """A new Module parsed from ``text`` whose functions all adopt the
    plans ``module``'s engine compiled — through the byte forms the
    artifact cache stores, so nothing in-process is shared."""
    twin = parse_module(text)
    engine = engine_for(module)
    for fn in module.defined_functions():
        cf = engine.compiled(fn)
        engine_for(twin).adopt(
            twin.functions[fn.name],
            pickle.loads(pickle.dumps(cf.plan)),
            marshal.loads(marshal.dumps(cf.code)),
        )
    return twin


def _code_names(code) -> set:
    """Every name a code object, or one nested in it, refers to."""
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= _code_names(const)
    return names


def _tails(module) -> int:
    return sum(len(cf.tails) for cf in engine_for(module).functions.values())


class TestSlowPathOnDemand:
    """Per-instruction code for a charge unit exists only once a run
    has crossed its step limit inside that unit."""

    def test_fresh_compile_has_no_per_instruction_code(self):
        module = compile_source(MIXED_SOURCE, "lazy")
        engine = engine_for(module)
        for fn in module.defined_functions():
            # ``_charge`` is what a tail accounts each instruction with.
            assert "_charge" not in _code_names(engine.compiled(fn).code)
        slow0 = STATS.get("engine.slow_segments")
        _, _, _, _, steps, _, _ = _observables(module, "compiled")
        assert STATS.get("engine.slow_segments") == slow0
        assert _tails(module) == 0

        # Cross the limit: that unit, and no other, gets a tail — once.
        limit = steps - 1
        raised = _observables(module, "compiled", limit)[0]
        assert raised == f"StepLimitExceeded: exceeded {limit} steps"
        assert STATS.get("engine.slow_segments") == slow0 + 1
        _observables(module, "compiled", limit)
        assert STATS.get("engine.slow_segments") == slow0 + 1
        assert _tails(module) == 1

    def test_suite_flow_never_needs_it(self):
        """All 21 workloads through the Figure-1 flow under their own
        step limits (benchmarks/e2e ``suite_flow``, same technique
        rotation) render no tail: per-instruction code compiled eagerly
        would serve none of that traffic."""
        slow0 = STATS.get("engine.slow_segments")
        for index, workload in enumerate(all_workloads()):
            module = workload.compile()
            profile = Profiler(module).profile()
            manager = PassManager(
                Noelle(module, profile=profile), fault_plan=None, checks=False
            )
            manager.run_registered("rm-lc-dependences")
            technique = ("doall", "helix", "dswp")[(index + 1) % 3]
            if technique == "dswp":
                manager.run_registered("dswp", num_stages=4)
            else:
                manager.run_registered(technique, num_cores=8)
            run = ParallelMachine(
                module, num_cores=8, step_limit=workload.step_limit * 4
            ).run()
            assert run.trapped is None
        assert STATS.get("engine.slow_segments") == slow0

    def test_every_budget_boundary_on_hydrated_functions(
        self, tmp_path, monkeypatch
    ):
        """The sweep of ``TestStepBudgetBoundary`` on a module a cold
        process published and this one only loaded: every function
        adopted from the store, none compiled here."""
        monkeypatch.setenv("NOELLE_CACHE_DIR", str(tmp_path / "cache"))
        cold = cache.cached_compile(MIXED_SOURCE, "boundary")
        Interpreter(cold).run()
        cache.publish_artifacts(cold)

        compiles = STATS.get("engine.compiles")
        hydrated = STATS.get("cache.engine_plans_hydrated")
        slow0 = STATS.get("engine.slow_segments")
        module = cache.cached_compile(MIXED_SOURCE, "boundary")
        assert module is not cold
        assert STATS.get("cache.engine_plans_hydrated") == hydrated + len(
            list(module.defined_functions())
        )
        _, _, _, _, steps, _, _ = _observables(module, "reference")
        for limit in range(1, steps + 3):
            reference = _observables(module, "reference", limit)
            compiled = _observables(module, "compiled", limit)
            assert compiled == reference, f"diverged at step_limit={limit}"
        assert STATS.get("engine.compiles") == compiles
        assert STATS.get("engine.slow_segments") > slow0


class TestTrapGiveback:
    """A trap at any position of a charge unit leaves the walker's
    accounting: the site syncs without exactly the unexecuted rest."""

    #: The first seven instructions of the one unit; every trap
    #: operand is a dynamic value, so no check is folded away at
    #: compile time.
    SETUP = """
  %base = elem_ptr [4 x i64]* @a, i64 0, i64 0
  %n = load i64, i64* %base
  %big = add i64 %n, i64 999999
  %oob = inttoptr i64 %big to i64*
  %fp = bitcast i64 ()* @main to i64*
  %d = sitofp i64 %n to double
  %bad = bitcast double %d to i64*
"""
    TRAPS = {
        "fnptr_deref": "%v = load i64, i64* %fp",
        "nonint_address": "%v = load i64, i64* %bad",
        "oob_load": "%v = load i64, i64* %oob",
        "oob_store": "store i64 1, i64* %oob",
        "div_by_zero": "%v = sdiv i64 7, i64 %n",
        "rem_by_zero": "%v = srem i64 7, i64 %n",
    }
    #: Padding of unequal costs (add 1, mul 3, load 4, bitcast 0), so a
    #: wrong tail shows in cycles as well as in steps.
    PADS = (
        "%p{i} = add i64 %n, i64 {i}",
        "%p{i} = mul i64 %n, i64 3",
        "%p{i} = load i64, i64* %base",
        "%p{i} = bitcast i64* %base to i64*",
    )

    @classmethod
    def program(cls, trap, position):
        pads = [pad.format(i=i) for i, pad in enumerate(cls.PADS)]
        body = pads[:position] + [cls.TRAPS[trap]] + pads[position:]
        return (
            "@a = global [4 x i64]\n\ndefine @main() -> i64 {\nentry:"
            + cls.SETUP
            + "".join(f"  {line}\n" for line in body)
            + "  ret i64 0\n}\n"
        )

    @pytest.mark.parametrize("position", range(len(PADS) + 1))
    @pytest.mark.parametrize("trap", sorted(TRAPS))
    def test_trap_position(self, trap, position):
        text = self.program(trap, position)
        module = parse_module(text)
        reference = _observables(module, "reference")
        assert reference[0] or reference[3]  # it does trap
        assert reference[4] == 7 + position + 1  # SETUP, pads, the trap
        assert _observables(module, "compiled") == reference
        # the sync at the raise site was the only correction
        assert _tails(module) == 0
        twin = _hydrated_twin(module, text)
        assert _observables(twin, "compiled") == reference


class TestPhiErrors:
    """Malformed phi groups fail like the walker — exception type,
    message and counters — on the fast path, across the step limit, and
    on hydrated functions (whose plan names no broken edge at all)."""

    CASES = {
        "second_phi_lacks_edge": (
            """
define @main() -> i64 {
entry:
  br label %join
other:
  br label %join
join:
  %x = phi i64 [ 1, %entry ], [ 2, %other ]
  %y = phi i64 [ 3, %other ]
  ret i64 %x
}
""",
            "KeyError: 'phi %y has no incoming edge from entry'",
        ),
        "pred_in_no_phi": (
            """
define @main() -> i64 {
entry:
  br label %join
other:
  br label %join
join:
  %x = phi i64 [ 2, %other ]
  %y = phi i64 [ 3, %other ]
  ret i64 %x
}
""",
            "KeyError: 'phi %x has no incoming edge from entry'",
        ),
        "phi_in_entry": (
            """
define @main() -> i64 {
entry:
  %x = phi i64 [ 2, %other ]
  ret i64 %x
other:
  br label %entry
}
""",
            "AssertionError: phi in entry block",
        ),
    }

    @staticmethod
    def failure(module, engine, limit):
        interp = Interpreter(module, step_limit=limit, engine=engine)
        with pytest.raises((KeyError, AssertionError)) as caught:
            interp.run()
        return (
            f"{caught.type.__name__}: {caught.value}",
            interp.result.steps,
            interp.result.cycles,
            interp.weighted_cycles,
        )

    @pytest.mark.parametrize("limit", (100, 1))
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_phi_error(self, name, limit):
        text, message = self.CASES[name]
        module = parse_module(text)
        reference = self.failure(module, "reference", limit)
        assert reference[0] == message
        assert self.failure(module, "compiled", limit) == reference
        twin = _hydrated_twin(module, text)
        assert self.failure(twin, "compiled", limit) == reference


def _sweep(module, text=None):
    """Every step limit on ``module``'s one engine against the walker,
    then the unbounded run on that same engine."""
    reference = _observables(module, "reference")
    steps = reference[4]
    for limit in range(1, steps + 2):
        expected = _observables(module, "reference", limit)
        assert _observables(module, "compiled", limit) == expected, limit
    assert _observables(module, "compiled") == reference
    if text is not None:
        twin = _hydrated_twin(module, text)
        for limit in range(1, steps + 2):
            expected = _observables(module, "reference", limit)
            assert _observables(twin, "compiled", limit) == expected, limit
    return reference


class TestTails:
    """Rendering a tail leaves the function's own code as it was."""

    #: The function names @a first; the unit after the first call names
    #: @b and @c.  A tail of that unit numbers what it binds from one
    #: again, so rendered into the function's namespace it would rebind
    #: the function's name for @a — and every later run would read @c.
    TEXT = """
@a = global [4 x i64]
@b = global [4 x i64]
@c = global [4 x i64]

define @main() -> i64 {
entry:
  %pa = elem_ptr [4 x i64]* @a, i64 0, i64 1
  store i64 7, i64* %pa
  call void @print_int(i64 1)
  %pb = elem_ptr [4 x i64]* @b, i64 0, i64 1
  %pc = elem_ptr [4 x i64]* @c, i64 0, i64 1
  store i64 1, i64* %pb
  store i64 2, i64* %pc
  %v = load i64, i64* %pa
  call void @print_int(i64 %v)
  ret i64 %v
}

declare @print_int(i64 %v) -> void
"""

    def test_sweep_then_unbounded_on_one_engine(self):
        module = parse_module(self.TEXT)
        slow0 = STATS.get("engine.slow_segments")
        reference = _sweep(module, self.TEXT)
        assert reference[0] is None and reference[1] == [1, 7]
        assert STATS.get("engine.slow_segments") == slow0 + 2 * 3

    def test_phis_directly_followed_by_a_call(self):
        """The unit is the phis plus the call: crossed in either, the
        phis are charged once and the call never runs."""
        text = """
define @bump(i64 %x) -> i64 {
entry:
  %y = add i64 %x, i64 3
  ret i64 %y
}

define @main() -> i64 {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %next, %loop ]
  %acc = phi i64 [ 1, %entry ], [ %sum, %loop ]
  %r = call i64 @bump(i64 %acc)
  call void @print_int(i64 %r)
  %sum = add i64 %acc, i64 %r
  %next = add i64 %i, i64 1
  %more = icmp slt i64 %next, i64 3
  br i1 %more, label %loop, label %done
done:
  ret i64 %sum
}

declare @print_int(i64 %v) -> void
"""
        module = parse_module(text)
        reference = _sweep(module, text)
        assert reference[0] is None and reference[1] == [4, 8, 16]


class TestControlFlowShapes:
    def test_switch_with_duplicate_targets_and_phis(self):
        text = """
define @pick(i64 %k) -> i64 {
entry:
  switch i64 %k, label %other [i64 1, label %low i64 2, label %low i64 3, label %join i64 1, label %other i64 4, label %join]
low:
  br label %join
other:
  br label %join
join:
  %v = phi i64 [ 10, %entry ], [ 20, %low ], [ 30, %other ]
  %w = phi i64 [ %k, %entry ], [ 0, %low ], [ 1, %other ]
  %r = add i64 %v, i64 %w
  ret i64 %r
}

define @main() -> i64 {
entry:
  br label %loop
loop:
  %k = phi i64 [ 0, %entry ], [ %next, %loop ]
  %r = call i64 @pick(i64 %k)
  call void @print_int(i64 %r)
  %next = add i64 %k, i64 1
  %more = icmp slt i64 %next, i64 6
  br i1 %more, label %loop, label %done
done:
  ret i64 0
}

declare @print_int(i64 %v) -> void
"""
        module = parse_module(text)
        reference = _sweep(module, text)
        assert reference[1] == [31, 20, 20, 13, 14, 31]
        counts = {}
        for engine in ENGINES:
            interp = Interpreter(module, engine=engine)
            interp.block_profile = BlockProfile()
            interp.run()
            counts[engine] = sorted(
                (src.name if src else "", dst.name, taken)
                for src, targets in interp.block_profile.edges.items()
                for dst, taken in targets.items()
            )
        assert counts["compiled"] == counts["reference"]
        assert ("entry", "join", 2) in counts["compiled"]

    def test_three_thousand_blocks(self):
        """The block dispatch is a binary tree, and a chain of blocks
        runs in place only up to the nesting cap: neither CPython's
        compiler and parser nor the engine's own recursion sees the
        block count."""
        blocks = 3000
        lines = ["define @main() -> i64 {", "entry:", "  br label %b0"]
        for i in range(blocks):
            prev = f"%v{i - 1}" if i else "7"
            lines += [
                f"b{i}:",
                f"  %v{i} = add i64 {prev}, i64 {i % 5}",
                f"  br label %b{i + 1}" if i + 1 < blocks else f"  ret i64 %v{i}",
            ]
        module = parse_module("\n".join(lines + ["}", ""]))
        reference = _observables(module, "reference")
        assert reference[0] is None and reference[4] == 2 * blocks + 1
        assert _observables(module, "compiled") == reference
        for limit in (1, blocks, 2 * blocks):
            assert _observables(module, "compiled", limit) == _observables(
                module, "reference", limit
            )

    def test_phi_out_of_leading_position(self):
        text = """
define @main() -> i64 {
entry:
  br label %next
next:
  %a = add i64 1, i64 2
  %x = phi i64 [ 5, %entry ]
  ret i64 %x
}
"""
        module = parse_module(text)
        reference = _observables(module, "reference")
        assert reference[0].startswith("InterpError: cannot execute <Phi: %x")
        assert _observables(module, "compiled") == reference
        twin = _hydrated_twin(module, text)
        assert _observables(twin, "compiled") == reference

    @pytest.mark.parametrize("args", ([5], [5, 6], [5, 6, 7]))
    def test_arity_mismatch(self, args):
        """Like the walker's ``zip``: a missing actual is only an error
        where it is used, an extra one is dropped."""
        text = """
define @f(i64 %a, i64 %b) -> i64 {
entry:
  %r = add i64 %a, i64 1
  ret i64 %r
}
"""
        runs = []
        for engine in ENGINES:
            interp = Interpreter(parse_module(text), engine=engine)
            result = interp.run("f", args)
            runs.append((result.return_value, result.steps, result.cycles))
        assert runs[0] == runs[1] == (6, 2, 2)


def _profiled(module, engine, step_limit=50_000_000):
    """:func:`_observables` under a block profile, then its edges and
    partial frames by block name."""
    profile = BlockProfile()
    observed = _observables(module, engine, step_limit, profile)
    edges = sorted(
        (src.name if src else "", dst.name, taken)
        for src, targets in profile.edges.items()
        for dst, taken in targets.items()
    )
    partial = [(block.name, at) for block, at in profile.partial]
    return (*observed, edges, partial)


def _chain(blocks: int) -> str:
    """``main`` as a chain of ``blocks`` blocks, each the one predecessor
    of the next and branching to it on a test that holds: the chain
    nests one branch deeper per block."""
    lines = ["define @main() -> i64 {", "entry:", "  br label %b0"]
    for i in range(blocks):
        prev = f"%v{i - 1}" if i else "7"
        following = f"b{i + 1}" if i + 1 < blocks else "done"
        lines += [
            f"b{i}:",
            f"  %v{i} = add i64 {prev}, i64 {i % 5}",
            f"  %c{i} = icmp sgt i64 %v{i}, i64 0",
            f"  br i1 %c{i}, label %{following}, label %out",
        ]
    lines += [
        "out:", "  ret i64 -1",
        "done:", f"  ret i64 %v{blocks - 1}",
        "}", "",
    ]
    return "\n".join(lines)


class TestInPlaceBlocks:
    """A block whose one predecessor branches to it runs inside that
    branch, not as a leaf of the dispatch tree: the walker's output,
    steps, cycles, edge profile and partial frames stay the same."""

    SHARED_TARGETS = """
define @pick(i64 %k) -> i64 {
entry:
  switch i64 %k, label %other [i64 1, label %two i64 2, label %two]
two:
  %a = add i64 %k, i64 10
  br label %join
other:
  %c = icmp slt i64 %k, i64 4
  br i1 %c, label %same, label %same
same:
  %b = mul i64 %k, i64 3
  br label %join
join:
  %v = phi i64 [ %a, %two ], [ %b, %same ]
  ret i64 %v
}

define @main() -> i64 {
entry:
  br label %loop
loop:
  %k = phi i64 [ 0, %entry ], [ %next, %loop ]
  %r = call i64 @pick(i64 %k)
  call void @print_int(i64 %r)
  %next = add i64 %k, i64 1
  %more = icmp slt i64 %next, i64 6
  br i1 %more, label %loop, label %done
done:
  ret i64 0
}

declare @print_int(i64 %v) -> void
"""

    def test_switch_cases_and_both_arms_on_one_block(self):
        module = parse_module(self.SHARED_TARGETS)
        fn = module.functions["pick"]
        compiler = _Compiler(fn)
        compiler.source()
        names = [fn.blocks[bi].name for bi in compiler.leaves]
        assert names == ["entry", "join"]  # two, other and same in place
        reference = _sweep(module, self.SHARED_TARGETS)
        assert reference[1] == [0, 11, 12, 9, 12, 15]
        expected = _profiled(module, "reference")
        assert _profiled(module, "compiled") == expected
        assert ("entry", "two", 2) in expected[7]
        assert ("other", "same", 4) in expected[7]

    TRAPS_IN_PLACE = """
@a = global [4 x i64]

define @main() -> i64 {
entry:
  %base = elem_ptr [4 x i64]* @a, i64 0, i64 0
  %n = load i64, i64* %base
  %c = icmp eq i64 %n, i64 0
  br i1 %c, label %bad, label %fine
bad:
  %big = add i64 %n, i64 999999
  %oob = inttoptr i64 %big to i64*
  %pad = mul i64 %n, i64 3
  %v = load i64, i64* %oob
  %w = add i64 %v, i64 %pad
  ret i64 %w
fine:
  ret i64 1
}
"""

    def test_memory_trap_names_the_in_place_block(self):
        module = parse_module(self.TRAPS_IN_PLACE)
        compiler = _Compiler(module.functions["main"])
        compiler.source()
        assert compiler.leaves == [0]
        expected = _profiled(module, "reference")
        assert expected[3] == "load from invalid address 999999"
        assert expected[8] == [("bad", 4)]
        assert _profiled(module, "compiled") == expected

    def test_step_limit_inside_an_in_place_block(self):
        """Every limit, the ones that run out in ``bad`` among them."""
        module = parse_module(self.TRAPS_IN_PLACE)
        reference = _sweep(module, self.TRAPS_IN_PLACE)
        for limit in range(1, reference[4] + 1):
            expected = _profiled(module, "reference", limit)
            assert _profiled(module, "compiled", limit) == expected, limit

    def test_unreachable_cycle_of_single_predecessor_blocks(self):
        text = """
define @main() -> i64 {
entry:
  %x = add i64 2, i64 3
  ret i64 %x
left:
  %y = add i64 %z, i64 1
  br label %right
right:
  %z = phi i64 [ %y, %left ]
  br label %left
}
"""
        module = parse_module(text)
        compiler = _Compiler(module.functions["main"])
        source = compiler.source()
        assert compiler.leaves == [0, 1]  # entry, and left for the cycle
        assert source.count("b = 2") == 1  # right renders once
        reference = _observables(module, "reference")
        assert reference[2] == 5
        assert _observables(module, "compiled") == reference

    @pytest.mark.parametrize("blocks", (150, 1000))
    def test_deep_chain_falls_back_to_leaves(self, blocks):
        module = parse_module(_chain(blocks))
        reference = _observables(module, "reference")
        assert reference[0] is None and reference[4] == 3 * blocks + 2
        assert _observables(module, "compiled") == reference
        for limit in (1, blocks, 3 * blocks):
            assert _observables(module, "compiled", limit) == _observables(
                module, "reference", limit
            )
        assert _profiled(module, "compiled") == _profiled(module, "reference")
        compiler = _Compiler(module.functions["main"])
        compiler.source()
        assert 2 < len(compiler.leaves) < blocks

    def test_crc32_make_table_dispatches_no_single_predecessor_block(self):
        fn = get("crc32").compile().functions["make_table"]
        compiler = _Compiler(fn)
        compiler.source()
        single = {
            bi for bi, block in enumerate(fn.blocks)
            if bi and len(block.predecessors()) == 1
            and block not in block.predecessors()
        }
        assert single  # for.body, for.end, do.end, if.then, if.else
        assert not single & set(compiler.leaves)


class TestFunctionPointerAsInteger:
    """``ptrtoint`` of a function's address is still that function
    wherever an integer may flow: known-int elision must keep every
    check such a value can reach."""

    PRELUDE = """
@cell = global [2 x i64]

define @one() -> i64 {
entry:
  ret i64 1
}

define @main(i64 %n) -> i64 {
entry:
  %raw = ptrtoint i64 ()* @one to i64
  %flag = icmp sgt i64 %n, i64 0
  br i1 %flag, label %left, label %right
left:
  br label %join
right:
  br label %join
join:
  %viaphi = phi i64 [ %raw, %left ], [ %raw, %right ]
  %viasel = select i1 %flag, i64 %viaphi, i64 %raw
  %ptr = inttoptr i64 %viasel to i64*
  %slot = elem_ptr [2 x i64]* @cell, i64 0, i64 1
  store i64 5, i64* %slot
"""
    SINKS = {
        "icmp_eq": "%c = icmp eq i64 %viasel, i64 %raw\n  %z = zext i1 %c to i64\n  ret i64 %z",
        "icmp_ordered": "%c = icmp slt i64 %viasel, i64 %n\n  %z = zext i1 %c to i64\n  ret i64 %z",
        "load": "%v = load i64, i64* %ptr\n  ret i64 %v",
        "store": "store i64 1, i64* %ptr\n  ret i64 0",
        "elem_ptr": "%q = elem_ptr i64* %ptr, i64 1\n  ret i64 0",
        "indirect_call": "%f = inttoptr i64 %viasel to i64 ()*\n  %v = call i64 %f()\n  ret i64 %v",
        "int_is_no_function": "%f = inttoptr i64 %n to i64 ()*\n  %v = call i64 %f()\n  ret i64 %v",
    }
    EXPECTED = {
        "icmp_eq": (None, 1, None),
        "icmp_ordered": (
            "InterpError: ordered comparison of function pointers", None, None,
        ),
        "load": (None, None, "dereference of a function pointer"),
        "store": (None, None, "dereference of a function pointer"),
        "elem_ptr": (None, None, "dereference of a function pointer"),
        "indirect_call": (None, 1, None),
        "int_is_no_function": (None, None, "indirect call to non-function 1"),
    }

    @staticmethod
    def outcome(module, engine):
        interp = Interpreter(module, engine=engine)
        interp.block_profile = BlockProfile()
        raised = None
        try:
            interp.run("main", [1])
        except InterpError as error:
            raised = f"{type(error).__name__}: {error}"
        result = interp.result
        return (
            raised, result.return_value, result.trapped, result.steps,
            result.cycles, interp.weighted_cycles,
            [(block.name, at) for block, at in interp.block_profile.partial],
        )

    @pytest.mark.parametrize("sink", sorted(SINKS))
    def test_sink(self, sink):
        text = self.PRELUDE + "  " + self.SINKS[sink] + "\n}\n"
        module = parse_module(text)
        reference = self.outcome(module, "reference")
        assert reference[:3] == self.EXPECTED[sink]
        assert self.outcome(module, "compiled") == reference
        assert self.outcome(_hydrated_twin(module, text), "compiled") == reference


class TestNonIntegerOperand:
    """A float in an integer instruction — reinterpreted through a
    ``bitcast``, which the verifier allows — is an ``OperandTrap`` on
    both executors: the same message, the same steps and cycles, the
    same partial-frame positions, at every step budget and on hydrated
    functions.  A caller's frame records its call site."""

    PROGRAM = """
@a = global [4 x i64]

define @f() -> i64 {{
entry:
  %base = elem_ptr [4 x i64]* @a, i64 0, i64 0
  %n = load i64, i64* %base
  %d = sitofp i64 %n to double
  %i = bitcast double %d to i64
  %p0 = add i64 %n, i64 1
  {op}
  %p1 = mul i64 %n, i64 3
  ret i64 %p0
}}

define @main() -> i64 {{
entry:
  %s = add i64 0, i64 2
  %v = call i64 @f()
  ret i64 %v
}}
"""
    OPS = {
        "add": "%v = add i64 %i, i64 1",
        "mul": "%v = mul i64 %i, i64 3",
        "trunc": "%v = trunc i64 %i to i32",
        "srem": "%v = srem i64 %i, i64 7",
        "sdiv": "%v = sdiv i64 %i, i64 7",
        "and": "%v = and i64 %i, i64 255",
        "icmp": "%v = icmp ult i64 %i, i64 5",
    }

    @staticmethod
    def outcome(module, engine, step_limit=50_000_000, memory_observer=None):
        interp = Interpreter(module, step_limit=step_limit, engine=engine)
        interp.block_profile = BlockProfile()
        interp.memory_observer = memory_observer
        raised = None
        try:
            interp.run()
        except InterpError as error:
            raised = f"{type(error).__name__}: {error}"
        result = interp.result
        return (
            raised, result.trapped, result.trap_kind, result.steps,
            result.cycles, interp.weighted_cycles,
            [(block.name, at) for block, at in interp.block_profile.partial],
        )

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_trap_agrees(self, op):
        text = self.PROGRAM.format(op=self.OPS[op])
        module = parse_module(text)
        reference = self.outcome(module, "reference")
        assert reference[:4] == (
            None, f"non-integer operand to {op}", "OperandTrap", 2 + 6,
        )
        # innermost first: the trap's position, then the call's
        assert reference[6] == [("entry", 6), ("entry", 2)]
        assert self.outcome(module, "compiled") == reference
        assert self.outcome(_hydrated_twin(module, text), "compiled") == reference

    @pytest.mark.parametrize("op", ["add", "sdiv"])
    def test_every_budget_boundary(self, op):
        """Across the limit the trap is raised by a tail, which knows
        its instruction from ``at`` instead of a line table."""
        module = parse_module(self.PROGRAM.format(op=self.OPS[op]))
        for limit in range(1, 10):
            reference = self.outcome(module, "reference", limit)
            assert self.outcome(module, "compiled", limit) == reference, limit
        assert _tails(module) > 0

    def test_other_type_errors_are_not_traps(self):
        """Only an integer instruction's ``TypeError`` is a trap: a
        function's address converted to a float stays a host error."""
        text = self.PROGRAM.format(
            op="%q = ptrtoint i64 ()* @main to i64\n"
            "  %v = sitofp i64 %q to double"
        )
        for engine in ENGINES:
            with pytest.raises(TypeError):
                Interpreter(parse_module(text), engine=engine).run()


class TestTrapTable:
    """A load is one line, ``x = mem[a]``, and the function's one trap
    table maps the line its ``KeyError`` comes from to the load's site:
    the walker's "load from invalid address" with its steps, cycles and
    partial frames, however the function runs.  Any other ``KeyError``
    is not a trap, and a pointer is tested once per block."""

    #: ``@f`` has operand-trap lines (integer instructions on a loaded
    #: value) beside its loads; the bad address is dynamic.
    PROGRAM = """
@a = global [4 x i64]

define @f() -> i64 {
entry:
  %base = elem_ptr [4 x i64]* @a, i64 0, i64 0
  %n = load i64, i64* %base
  %p0 = add i64 %n, i64 1
  %big = add i64 %n, i64 999999
  %oob = inttoptr i64 %big to i64*
  %p1 = mul i64 %n, i64 3
  %v = load i64, i64* %oob
  %p2 = add i64 %v, i64 2
  ret i64 %p2
}

define @main() -> i64 {
entry:
  %s = add i64 0, i64 2
  %v = call i64 @f()
  ret i64 %v
}
"""

    @staticmethod
    def outcome(module, engine, step_limit=50_000_000, observed=False):
        """``TestNonIntegerOperand``'s outcome, then the memory events
        an observer saw (observed code runs only with one set)."""
        events = []
        observer = (lambda *event: events.append(event)) if observed else None
        return (
            *TestNonIntegerOperand.outcome(module, engine, step_limit, observer),
            events,
        )

    def test_one_table_maps_loads_and_operand_lines(self):
        module = parse_module(self.PROGRAM)
        fn = module.functions["f"]
        cf = engine_for(module).compiled(fn)
        (table,) = [
            spec[1] for name, spec in cf.plan["binds"] if name.startswith("_TS")
        ]
        sites = {at for at, _steps, _cycles in table.values()}
        opcodes = sorted(fn.blocks[0].instructions[at - 1].opcode for at in sites)
        assert opcodes == ["add", "add", "add", "load", "load", "mul"]
        assert "except KeyError" not in _Compiler(fn).source()

    def test_compiled_and_hydrated(self):
        module = parse_module(self.PROGRAM)
        reference = self.outcome(module, "reference")
        assert reference[:3] == (
            None, "load from invalid address 999999", "MemoryTrap"
        )
        # innermost first: the load's position, then the call's
        assert reference[6] == [("entry", 7), ("entry", 2)]
        assert self.outcome(module, "compiled") == reference
        twin = _hydrated_twin(module, self.PROGRAM)
        assert self.outcome(twin, "compiled") == reference

    def test_observed(self):
        """The observer sees the bad load before it traps, as the
        walker's does."""
        module = parse_module(self.PROGRAM)
        reference = self.outcome(module, "reference", observed=True)
        assert reference[7][-1][:2] == ("load", 999999)
        assert self.outcome(module, "compiled", observed=True) == reference

    def test_every_budget_boundary(self):
        """Across the limit the load runs in a tail, which catches its
        own ``KeyError``."""
        module = parse_module(self.PROGRAM)
        for limit in range(1, 14):
            for observed in (False, True):
                reference = self.outcome(module, "reference", limit, observed)
                compiled = self.outcome(module, "compiled", limit, observed)
                assert compiled == reference, (limit, observed)
        assert _tails(module) > 0

    @pytest.mark.parametrize("where", ["intrinsic", "callee"])
    def test_other_key_errors_propagate_unchanged(self, where):
        """A ``KeyError`` from an intrinsic's handler — raised in this
        frame's call, or in a callee's — is the host error it was, even
        with an address for its key."""
        text = """
@a = global [4 x i64]

define @g(i64* %p) -> i64 {
entry:
  %n = load i64, i64* %p
  call void @print_int(i64 %n)
  %m = add i64 %n, i64 1
  ret i64 %m
}

define @main() -> i64 {
entry:
  %base = elem_ptr [4 x i64]* @a, i64 0, i64 0
  %n = load i64, i64* %base
  %k = add i64 %n, i64 1
  call void @print_int(i64 %k)
  %v = call i64 @g(i64* %base)
  ret i64 %v
}

declare @print_int(i64 %arg0) -> void io
"""
        error = KeyError(12345)
        calls = []

        def handler(st, args):
            calls.append(args)
            if where == "intrinsic" or len(calls) == 2:
                raise error

        for engine in ENGINES:
            calls.clear()
            interp = Interpreter(parse_module(text), engine=engine)
            interp.INTRINSICS = {
                **Interpreter.INTRINSICS,
                "print_int": (Interpreter.INTRINSICS["print_int"][0], handler),
            }
            with pytest.raises(KeyError) as raised:
                interp.run()
            assert raised.value is error
            assert interp.result.trapped is None
            assert len(calls) == (1 if where == "intrinsic" else 2)

    def test_a_pointer_is_tested_once_per_block(self):
        """N loads of one pointer in a block: one ``__class__`` test,
        at the first; a function's address traps there."""
        text = """
define @f(i64* %p) -> i64 {
entry:
  %a = load i64, i64* %p
  %b = load i64, i64* %p
  %c = load i64, i64* %p
  %ab = add i64 %a, i64 %b
  %s = add i64 %ab, i64 %c
  br label %next
next:
  %d = load i64, i64* %p
  store i64 %s, i64* %p
  %t = add i64 %s, i64 %d
  ret i64 %t
}

define @main() -> i64 {
entry:
  %fp = bitcast i64 ()* @main to i64*
  %v = call i64 @f(i64* %fp)
  ret i64 %v
}
"""
        module = parse_module(text)
        source = _Compiler(module.functions["f"]).source()
        assert source.count("__class__") == 2  # one per block
        reference = self.outcome(module, "reference")
        assert reference[:3] == (
            None, "dereference of a function pointer", "MemoryTrap"
        )
        assert reference[6] == [("entry", 1), ("entry", 2)]
        assert self.outcome(module, "compiled") == reference


def test_compiled_code_size_gate():
    """What ``compile()`` is paid for, and what the artifact cache
    writes and reads, is bytes of code — and bytes do not vary by
    runner.  The corpus is ``cache_coldwarm``'s: the registry plus the
    seed-1 ``bigmod``; plan v3 compiled it to 2 345 857 bytes, v4 to
    1 696 272, v5 to 1 724 058, v6 to 1 478 596, v7 (operand traps)
    to 1 478 596 and v8 (one trap table, address tests once per block)
    to 1 039 262 (the gate: v8 plus 10 %)."""
    modules = [workload.compile() for workload in all_workloads()]
    modules.append(compile_source(bigmod.generate(1, 6000), "bigmod"))
    total = 0
    for module in modules:
        engine = engine_for(module)
        for fn in module.defined_functions():
            total += len(marshal.dumps(engine.compiled(fn).code))
    assert total <= 1_143_200
