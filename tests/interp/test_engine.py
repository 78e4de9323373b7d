"""Execution-engine tests: compiled vs reference equivalence.

The compiled engine must be observationally identical to the reference
walker — same output, same return values, same trap messages, the same
step/cycle/weighted-cycle accounting at *every* budget boundary — and no
stale compiled code may survive a transform or a pass-manager rollback.
"""

import marshal
import pickle

import pytest

from repro import cache, ir
from repro.core.noelle import Noelle
from repro.core.profiler import Profiler
from repro.frontend import compile_source
from repro.interp import Interpreter, InterpError, StepLimitExceeded
from repro.interp.engine import engine_for, engine_mode, invalidate_module
from repro.ir import parse_module
from repro.perf import STATS
from repro.robust.passmanager import PassManager
from repro.runtime.machine import ParallelMachine
from repro.tools.rm_lc_dependences import remove_loop_carried_dependences
from repro.workloads import all_workloads, get
from repro.xforms.doall import DOALL

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


def _observables(module, engine, step_limit=50_000_000):
    """Everything the engines must agree on, as one comparable tuple."""
    interp = Interpreter(module, step_limit=step_limit, engine=engine)
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
    def test_mode_resolution(self, monkeypatch):
        monkeypatch.delenv("NOELLE_ENGINE", raising=False)
        assert engine_mode() == "compiled"
        monkeypatch.setenv("NOELLE_ENGINE", "reference")
        assert engine_mode() == "reference"
        assert engine_mode("compiled") == "compiled"  # explicit wins
        monkeypatch.setenv("NOELLE_ENGINE", "jit")
        with pytest.raises(ValueError, match="jit"):
            engine_mode()

    def test_interpreter_honors_env(self, monkeypatch):
        module = compile_source("int main() { return 1; }")
        monkeypatch.setenv("NOELLE_ENGINE", "reference")
        assert Interpreter(module).engine is None
        monkeypatch.setenv("NOELLE_ENGINE", "compiled")
        assert Interpreter(module).engine is not None

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
    """Satellite: block-granular charging must hit *exactly* the same
    StepLimitExceeded points as the per-instruction reference."""

    def test_every_budget_boundary(self):
        module = compile_source(MIXED_SOURCE, "boundary")
        raised, _, _, _, steps, _, _ = _observables(module, "reference")
        assert raised is None and steps > 50  # the sweep crosses segments
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
            monkeypatch.setenv("NOELLE_ENGINE", engine)
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


def _segments(module):
    engine = engine_for(module)
    return [
        seg
        for cf in engine.functions.values()
        for block in cf.blocks
        for seg in block.segments
    ]


class TestSlowPathOnDemand:
    """The per-instruction closures of a segment exist only once a run
    has crossed its step limit inside that segment."""

    def test_fresh_compile_has_no_per_instruction_code(self):
        module = compile_source(MIXED_SOURCE, "lazy")
        engine = engine_for(module)
        for fn in module.defined_functions():
            cf = engine.compiled(fn)
            assert not [n for n in cf.code.co_names if n.startswith("_i")]
        slow0 = STATS.get("engine.slow_segments")
        _, _, _, _, steps, _, _ = _observables(module, "compiled")
        assert all(seg.ops == () for seg in _segments(module))
        assert STATS.get("engine.slow_segments") == slow0

        # Cross the limit inside some multi-instruction segment: that
        # segment, and no other, gets its ops — once.
        for limit in range(steps - 1, 0, -1):
            raised = _observables(module, "compiled", limit)[0]
            assert raised == f"StepLimitExceeded: exceeded {limit} steps"
            if STATS.get("engine.slow_segments") > slow0:
                break
        built = [seg for seg in _segments(module) if seg.ops]
        assert len(built) == 1 and len(built[0].ops) == built[0].steps
        assert STATS.get("engine.slow_segments") == slow0 + 1
        _observables(module, "compiled", limit)
        assert STATS.get("engine.slow_segments") == slow0 + 1

    def test_suite_flow_never_needs_it(self):
        """All 21 workloads through the Figure-1 flow under their own
        step limits (benchmarks/e2e ``suite_flow``, same technique
        rotation) render no per-instruction closure: the copy that used
        to be compiled eagerly served none of that traffic."""
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
        monkeypatch.setenv("NOELLE_ENGINE", "compiled")
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
    """A trap at any position of a fused segment leaves the walker's
    accounting: the site gives back exactly the unexecuted tail."""

    #: The first seven instructions of the one segment; every trap
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
        # one fused segment: the give-back was the only correction
        (block,) = engine_for(module).compiled(module.functions["main"]).blocks
        assert len(block.segments) == 1 and block.segments[0].ops == ()
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
