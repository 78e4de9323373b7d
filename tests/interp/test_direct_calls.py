"""Calls between compiled functions are Python calls.

A direct call to a defined function goes through the callee's cell in
the module's :class:`~repro.interp.engine.ExecutionEngine`, and a call
to a known intrinsic calls its handler with the cost already charged,
or is code when it is a parallel-region marker; only indirect calls and
unknown externals take ``st.call_function``.
No cell may run code its function no longer has, invocation counts stay
exact without a per-call observer, and recursion deeper than the host's
stack is a trap.
"""

import functools
import marshal
import pickle

import pytest

from repro.core import profiler
from repro.core.noelle import Noelle
from repro.core.profiler import Profiler
from repro.frontend import compile_source
from repro.interp import Interpreter
from repro.interp.compiler import _Compiler
from repro.interp.engine import (
    EPLAN_VERSION,
    EnginePlanError,
    engine_for,
    invalidate_module,
)
from repro.interp.interp import INTRINSIC_COSTS
from repro.ir import parse_module, print_module
from repro.ir.instructions import BinaryOp, Call
from repro.ir.values import ConstantInt
from repro.perf import STATS
from repro.robust.passmanager import PassManager
from repro.tools import cli, pipeline
from repro.workloads import all_workloads

ENGINES = ("reference", "compiled")

#: ``main`` prints callee(0) + callee(1) + callee(2), and ``callee``
#: adds its one constant: the printed sum says which body ran.
CALLER = """
int callee(int x) { return x + 1; }
int main() {
  int s = 0;
  for (int i = 0; i < 3; i = i + 1) { s = s + callee(i); }
  print_int(s);
  return s;
}
"""


def _set_increment(module, value):
    """Make ``callee`` add ``value`` instead of its constant."""
    for inst in module.functions["callee"].instructions():
        if isinstance(inst, BinaryOp) and isinstance(inst.rhs, ConstantInt):
            inst.set_operand(1, ConstantInt(inst.rhs.type, value))
            return
    raise AssertionError("callee adds no constant")


def _printed(module, observed=False):
    interp = Interpreter(module)
    if observed:
        interp.edge_observer = lambda src, dst: None
    return interp.run().output


class TestStaleCells:
    def test_invalidated_callee_runs_its_new_body(self):
        module = compile_source(CALLER, "stale")
        assert _printed(module) == [6]
        engine = engine_for(module)
        main = module.functions["main"]
        caller = engine.functions[id(main)]
        _set_increment(module, 10)
        invalidate_module(module, module.functions["callee"])
        compiles = STATS.get("engine.compiles")
        assert _printed(module) == [33]
        # The caller kept its code: only the callee was compiled again.
        assert engine.functions[id(main)] is caller
        assert STATS.get("engine.compiles") == compiles + 1

    def test_rollback_drops_observed_cells(self):
        module = compile_source(CALLER, "rollback")
        assert _printed(module, observed=True) == [6]
        manager = PassManager(Noelle(module), fault_plan=None)
        seen = []

        def bad_pass(noelle):
            _set_increment(noelle.module, 10)
            invalidate_module(noelle.module, noelle.module.functions["callee"])
            # The observed cells now hold the mutated body; then fail.
            seen.append(_printed(noelle.module, observed=True))
            raise RuntimeError("injected failure after mutation")

        assert manager.run("bad-pass", bad_pass).rolled_back
        assert seen == [[33]]
        assert _printed(module, observed=True) == [6]
        assert _printed(module) == [6]

    def test_adopted_plan_replaces_the_cell(self):
        module = compile_source(CALLER, "adopt")
        assert _printed(module) == [6]
        twin = parse_module(print_module(module))
        _set_increment(twin, 10)
        cf = engine_for(twin).compiled(twin.functions["callee"])
        plan = pickle.loads(pickle.dumps(cf.plan))
        code = marshal.loads(marshal.dumps(cf.code))
        _set_increment(module, 10)
        engine_for(module).adopt(module.functions["callee"], plan, code)
        assert _printed(module) == [33]

    def test_cells_do_not_grow_with_invalidations(self):
        module = compile_source(CALLER, "churn")
        engine = engine_for(module)
        callee = module.functions["callee"]
        for round_ in range(1000):
            invalidate_module(module, callee)
            if round_ % 100 == 0:
                assert _printed(module) == [6]
                assert _printed(module, observed=True) == [6]
        for cells in (engine.cells, engine.observed_cells):
            assert 1 <= len(cells) <= len(module.functions)
        invalidate_module(module)
        assert not engine.cells and not engine.observed_cells


#: The parallel-region intrinsics, emitted as code with no handler call.
REGION_MARKERS = (
    "helix_iter_boundary", "helix_seq_begin", "helix_seq_end",
    "queue_push_i64", "queue_push_f64", "queue_pop_i64", "queue_pop_f64",
)


def _call_kind(inst) -> str:
    callee = inst.called_function()
    if callee is not None and not callee.is_declaration():
        return "direct"
    if callee is not None and callee.name in REGION_MARKERS:
        return "marker"
    if callee is not None and callee.name in INTRINSIC_COSTS:
        return "intrinsic"
    return "slow"  # through a pointer, or an unknown external


def _assert_fast_paths(module) -> list[str]:
    """Check every call of ``module``'s generated code against its kind;
    returns the kinds."""
    seen = []
    for fn in module.defined_functions():
        kinds = [
            _call_kind(inst)
            for inst in fn.instructions()
            if isinstance(inst, Call)
        ]
        source = _Compiler(fn).source()
        assert source.count("st.call_function(") == kinds.count("slow")
        assert source.count("[0](st") == kinds.count("direct")
        assert source.count("st.INTRINSICS[") == kinds.count("intrinsic")
        seen += kinds
    return seen


class TestFastPath:
    @pytest.mark.parametrize("workload", all_workloads(), ids=lambda w: w.name)
    def test_only_indirect_and_unknown_calls_leave_generated_code(
        self, workload
    ):
        _assert_fast_paths(workload.compile())

    @pytest.mark.parametrize("technique", ["helix", "dswp"])
    @pytest.mark.parametrize("workload", all_workloads(), ids=lambda w: w.name)
    def test_no_region_marker_calls_a_handler(
        self, workload, technique, monkeypatch
    ):
        # The parallelized input is built with no fault plan armed: an
        # injected fault would roll the technique back.
        monkeypatch.delenv("NOELLE_FAULTS", raising=False)
        module = workload.compile()
        _, count = pipeline.parallelize(pipeline.load(module), technique)
        assert count > 0
        kinds = _assert_fast_paths(module)
        # Every HELIX task marks its iterations; a DSWP pipeline may
        # forward no value.
        assert "marker" in kinds or technique == "dswp"

    def test_previous_plan_version_is_refused_then_compiled_once(self):
        text = print_module(compile_source(
            "int main() { print_int(6); return 6; }", "v4"
        ))
        module = parse_module(text)
        cf = engine_for(module).compiled(module.functions["main"])
        assert EPLAN_VERSION == 9
        twin = parse_module(text)
        with pytest.raises(EnginePlanError, match="plan version 8 != 9"):
            engine_for(twin).adopt(
                twin.functions["main"], {**cf.plan, "version": 8}, cf.code
            )
        compiles = STATS.get("engine.compiles")
        assert _printed(twin) == [6]
        assert STATS.get("engine.compiles") == compiles + 1


#: ``print_int`` is only ever called through a pointer held in a global,
#: which no optimization folds back into a direct call.
THROUGH_POINTER = """
void (*fp)(int);
int main() {
  fp = print_int;
  for (int i = 0; i < 3; i = i + 1) { fp(i); }
  return 0;
}
"""

RECURSIVE = """
int depth(int n) { if (n == 0) { return 0; } return depth(n - 1) + 1; }
int main() { print_int(depth(40)); return 0; }
"""


@pytest.fixture
def engine(request, monkeypatch):
    """The executor every ``Profiler`` in the test profiles on."""
    monkeypatch.setattr(
        profiler, "Interpreter",
        functools.partial(Interpreter, engine=request.param),
    )
    return request.param


@pytest.mark.parametrize("engine", ENGINES, indirect=True)
class TestInvocationCounts:
    """``function_invocations`` against what the program itself shows."""

    def test_declaration_called_through_a_pointer(self, engine):
        module = compile_source(THROUGH_POINTER, "pointer")
        calls = [
            inst for inst in module.functions["main"].instructions()
            if isinstance(inst, Call)
        ]
        assert calls and all(inst.is_indirect() for inst in calls)
        data = Profiler(module).profile()
        printed = Interpreter(module).run().output
        assert printed == [0, 1, 2]
        print_int = module.functions["print_int"]
        assert data.function_invocations(print_int) == len(printed)
        assert data.function_invocations(module.functions["main"]) == 1

    def test_recursion(self, engine):
        module = compile_source(RECURSIVE, "recursive")
        data = Profiler(module).profile()
        (depth,) = Interpreter(module).run().output
        assert data.function_invocations(module.functions["depth"]) == depth + 1
        assert data.function_invocations(module.functions["print_int"]) == 1
        assert data.function_invocations(module.functions["main"]) == 1


def _nested(depth: int) -> str:
    return RECURSIVE.replace("depth(40)", f"depth({depth})")


class TestDeepRecursion:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_too_deep_is_a_trap(self, engine):
        module = compile_source(_nested(5000), "deep")
        result = pipeline.execute(module, engine=engine)
        assert result.trap_kind == "StackOverflow"
        assert result.trapped and result.output == []

    def test_too_deep_from_the_cli(self, tmp_path, capsys):
        path = tmp_path / "deep.mc"
        path.write_text(_nested(5000))
        assert cli.main(["run", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("TRAP: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_one_python_frame_per_call(self):
        """Four Python frames per IR call ran out near depth 250; one
        per call reaches 900."""
        result = Interpreter(compile_source(_nested(900), "deep900")).run()
        assert result.trapped is None and result.output == [900]
