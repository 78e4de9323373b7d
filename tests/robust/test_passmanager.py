"""The transactional pass manager: snapshots, rollback, budgets, registry."""

import time

import pytest

from repro import ir
from repro.core.noelle import Noelle
from repro.frontend.codegen import compile_source
from repro.interp.interp import Interpreter
from repro.ir import print_module, verify_module
from repro.robust.faults import FaultPlan, InjectedFault
from repro.robust import passmanager
from repro.robust.passmanager import PassManager, build_pass
from repro.tools.meta_pdg_embed import embed_pdg, load_embedded_pdg
from repro.workloads.registry import all_workloads

SOURCE = """
int g = 6;
int out[60];
int main() {
  int i;
  for (i = 0; i < 60; i = i + 1) {
    int k = g * 3;
    out[i] = k + i;
  }
  print_int(out[10]);
  return 0;
}
"""


#: A memory accumulator (``total``) whose promotion forces alias queries.
ACC_SOURCE = """
int data[300];
int total = 0;
int main() {
  int i;
  for (i = 0; i < 300; i = i + 1) { data[i] = i * 5 % 23; }
  for (i = 0; i < 300; i = i + 1) { total = total + data[i]; }
  print_int(total);
  return total;
}
"""


#: A global and a constant whose shortest spellings have no dot.
BIG_DOUBLE_SOURCE = """
double a[8];
double x = 100000000000000000000.0;
int main() {
  int i;
  for (i = 0; i < 8; i = i + 1) { a[i] = x * 3.0 + a[i]; }
  print_float(a[7] * 0.00001);
  return 0;
}
"""


def fresh_manager(source=SOURCE, **kwargs):
    module = compile_source(source, "demo")
    noelle = Noelle(module)
    kwargs.setdefault("fault_plan", None)  # isolate from NOELLE_FAULTS
    return PassManager(noelle, **kwargs), module


class TestSuccessPath:
    def test_ok_pass_commits_and_records(self):
        manager, module = fresh_manager()
        before = print_module(module)
        result = manager.run_registered("licm")
        assert result.ok and not result.rolled_back
        assert result.value >= 1  # g * 3 is hoistable
        assert result.error is None
        assert print_module(module) != before  # the change was kept
        assert manager.bundles == []
        assert Interpreter(module).run().output == [28]

    def test_unknown_pass_rejected_before_any_transaction(self):
        manager, _ = fresh_manager()
        with pytest.raises(ValueError, match="unknown tool"):
            manager.run_registered("does-not-exist")
        assert manager.results == []

    def test_registry_covers_all_ten_xforms_and_rm_lc(self):
        names = ["doall", "dswp", "helix", "licm", "perspective", "dead",
                 "coos", "prvjeeves", "timesqueezer", "carat",
                 "rm-lc-dependences"]
        for name in names:
            canonical, body = build_pass(name)
            assert canonical == name
            assert callable(body)
        # Each pass has one name: the old aliases are unknown tools.
        for alias in ("prvj", "time", "time-squeezer", "rm_lc_dependences"):
            with pytest.raises(ValueError, match="unknown tool"):
                build_pass(alias)

    def test_options_reach_the_pass_and_are_checked_when_built(self):
        """``build_pass`` hands options to the pass: the widths the e2e
        benchmarks pass go through, and an option the pass does not take
        or a width below 1 fails before any transaction starts."""
        assert build_pass("doall", num_cores=4)[0] == "doall"
        assert build_pass("helix", num_cores=4, minimum_hotness=0.1)[0] == "helix"
        assert build_pass("dswp", num_stages=3, only_loop_id=0)[0] == "dswp"
        assert build_pass("perspective", num_cores=12)[0] == "perspective"
        manager, module = fresh_manager()
        before = print_module(module)
        for name, options in [("doall", {"num_core": 4}),
                              ("dswp", {"num_cores": 4}),
                              ("licm", {"minimum_hotness": 0.1})]:
            with pytest.raises(TypeError, match="unexpected keyword"):
                manager.run_registered(name, **options)
        for name, options in [("doall", {"num_cores": 0}),
                              ("helix", {"num_cores": -1}),
                              ("perspective", {"num_cores": 0}),
                              ("dswp", {"num_stages": 0})]:
            with pytest.raises(ValueError, match="must be >= 1"):
                manager.run_registered(name, **options)
        assert manager.results == []
        assert print_module(module) == before

    @pytest.mark.parametrize("width", [0, -1])
    def test_technique_constructors_refuse_a_width_below_one(self, width):
        from repro.xforms.doall import DOALL
        from repro.xforms.dswp import DSWP
        from repro.xforms.helix import HELIX
        from repro.xforms.perspective import Perspective

        noelle = Noelle(compile_source(SOURCE, "demo"))
        for technique in (DOALL, HELIX, Perspective):
            with pytest.raises(ValueError, match="num_cores must be >= 1"):
                technique(noelle, width)
            assert technique(noelle, 1).num_cores == 1
        with pytest.raises(ValueError, match="num_stages must be >= 1"):
            DSWP(noelle, width)
        assert DSWP(noelle, 1).num_stages == 1


class TestRollback:
    def test_exception_mid_mutation_rolls_back_byte_identical(self, tmp_path):
        manager, module = fresh_manager(crash_dir=tmp_path)
        before = print_module(module)

        def mutate_and_die(noelle):
            noelle.module.add_global("junk", ir.I64)
            raise RuntimeError("boom")

        result = manager.run("bad-pass", mutate_and_die)
        assert result.rolled_back
        assert result.error.kind == "RuntimeError"
        assert result.error.phase == "run"
        assert print_module(module) == before
        assert "junk" not in module.globals
        verify_module(module)
        # Crash bundle holds the byte-identical pre-pass IR.
        assert result.bundle is not None
        assert (result.bundle / "module.ir").read_text() == before

    def test_verifier_rejection_rolls_back(self):
        manager, module = fresh_manager()
        before = print_module(module)

        def drop_terminator(noelle):
            main = noelle.module.get_function("main")
            main.blocks[0].instructions.pop()

        result = manager.run("corruptor", drop_terminator)
        assert result.rolled_back
        assert result.error.kind == "VerificationError"
        assert result.error.phase == "verify"
        assert print_module(module) == before

    def test_injected_alias_fault_rolls_back(self, tmp_path):
        manager, module = fresh_manager(
            ACC_SOURCE,
            crash_dir=tmp_path,
            fault_plan=FaultPlan.from_spec("alias_query:1"),
        )
        before = print_module(module)
        result = manager.run_registered("rm-lc-dependences")
        assert result.rolled_back
        assert result.error.kind == "InjectedFault"
        assert result.error.fault == "alias_query:1"
        assert print_module(module) == before
        assert len(list(tmp_path.iterdir())) == 1

    def test_snapshot_fault_leaves_module_untouched(self):
        manager, module = fresh_manager(
            fault_plan=FaultPlan.from_spec("snapshot:1")
        )
        before = print_module(module)
        result = manager.run_registered("licm")
        assert result.rolled_back
        assert result.error.phase == "snapshot"
        assert print_module(module) == before
        # The one-shot plan is spent: the retry commits.
        retry = manager.run_registered("licm")
        assert retry.ok

    def test_metadata_survives_rollback(self, tmp_path, monkeypatch, capsys):
        import copy

        from repro.core.profiler import (
            PROFILE_KEY, Profiler, embed_profile, read_embedded_counts,
        )
        from repro.tools.cli import main as cli_main

        manager, module = fresh_manager()
        embed_profile(module, Profiler(module).profile())
        embed_pdg(module)
        module.metadata["custom.tag"] = [1, 2, 3]
        main = module.get_function("main")
        main.metadata["custom.fn"] = {"nested": [1]}
        counts = [read_embedded_counts(module)[id(i)] for i in main.instructions()]
        saved_module_md = copy.deepcopy(module.metadata)

        def mutate_metadata_and_die(noelle):
            record = noelle.module.metadata[PROFILE_KEY]
            record["functions"]["main"].clear()
            noelle.module.metadata.clear()
            fn = noelle.module.get_function("main")
            fn.metadata["custom.fn"]["nested"].append(2)
            fn.metadata.clear()
            raise RuntimeError("boom")

        result = manager.run("md-killer", mutate_metadata_and_die)
        assert result.rolled_back
        assert module.metadata == saved_module_md
        assert load_embedded_pdg(module) is not None  # still fits the module
        main = module.get_function("main")
        assert main.metadata == {"custom.fn": {"nested": [1]}}
        restored = read_embedded_counts(module)
        assert [restored[id(i)] for i in main.instructions()] == counts

        # A double whose shortest spelling has no dot (1e+20, 1e-05) is in
        # the snapshot's text: the rollback restores it, and the module
        # written afterwards runs like the source.
        source = tmp_path / "big.mc"
        source.write_text(BIG_DOUBLE_SOURCE)
        written = tmp_path / "out.ir"
        monkeypatch.setenv("NOELLE_FAULTS", "alias_query:1")
        assert cli_main(["licm", str(source), "-o", str(written)]) == 0
        assert "pass licm rolled back" in capsys.readouterr().err
        monkeypatch.delenv("NOELLE_FAULTS")
        assert cli_main(["run", str(source)]) == 0
        expected = capsys.readouterr().out
        assert cli_main(["run", str(written)]) == 0
        assert capsys.readouterr().out == expected


class TestBudgets:
    def test_wall_clock_overrun_rolls_back(self, monkeypatch):
        monkeypatch.setattr(passmanager, "DEADLINE_S", 0.0)
        manager, module = fresh_manager()
        before = print_module(module)

        def slow(noelle):
            time.sleep(0.01)

        result = manager.run("sleepy", slow)
        assert result.rolled_back
        assert result.error.kind == "PassDeadlineExceeded"
        assert print_module(module) == before


class TestCheckGate:
    def test_gate_is_off_by_default(self, monkeypatch):
        monkeypatch.delenv("NOELLE_CHECKS", raising=False)
        manager, _ = fresh_manager()
        assert manager.checks is False

    def test_environment_enables_gate(self, monkeypatch):
        monkeypatch.setenv("NOELLE_CHECKS", "1")
        manager, _ = fresh_manager()
        assert manager.checks is True
        monkeypatch.setenv("NOELLE_CHECKS", "0")
        manager, _ = fresh_manager()
        assert manager.checks is False

    def test_clean_pass_commits_with_gate_on(self):
        manager, module = fresh_manager(checks=True)
        result = manager.run_registered("licm")
        assert result.ok
        assert not any(d.severity == "error" for d in result.diagnostics)

    def test_checker_errors_roll_back_and_land_in_the_bundle(self, tmp_path):
        import json

        from repro.xforms import HELIX
        from tests.checks.fixtures import (
            HELIX_KERNEL_SOURCE,
            TASK_NAME,
            segment_marker_calls,
        )

        module = compile_source(HELIX_KERNEL_SOURCE, "fixture")
        noelle = Noelle(module)
        manager = PassManager(noelle, crash_dir=tmp_path, fault_plan=None,
                              checks=True)
        before = print_module(module)

        def buggy_parallelize(noelle):
            target = next(
                loop for loop in noelle.loops()
                if loop.structure.function.name == "kernel"
            )
            HELIX(noelle, 4).parallelize(target)
            noelle.invalidate()
            task = noelle.module.get_function(TASK_NAME)
            for marker in segment_marker_calls(task):
                marker.erase_from_parent()
            noelle.invalidate()

        result = manager.run("buggy-helix", buggy_parallelize)
        assert result.rolled_back
        assert result.error.kind == "CheckFailure"
        assert result.error.phase == "check"
        assert print_module(module) == before
        findings = manager.bundles[-1].diagnostics
        assert any(
            d["checker"] == "races" and d["severity"] == "error"
            for d in findings
        )
        report = json.loads((result.bundle / "report.json").read_text())
        assert report["diagnostics"] == findings


class TestEnvironmentPlans:
    def test_env_plan_arms_default_managers(self, monkeypatch):
        monkeypatch.setenv("NOELLE_FAULTS", "verify:1")
        module = compile_source(SOURCE, "demo")
        manager = PassManager(Noelle(module))
        before = print_module(module)
        result = manager.run_registered("licm")
        assert result.rolled_back
        assert print_module(module) == before

    def test_explicit_none_disables_env_plan(self, monkeypatch):
        monkeypatch.setenv("NOELLE_FAULTS", "verify:1")
        module = compile_source(SOURCE, "demo")
        manager = PassManager(Noelle(module), fault_plan=None)
        assert manager.run_registered("licm").ok


@pytest.mark.parametrize(
    "workload", [w.name for w in all_workloads()],
)
def test_rollback_is_byte_identical_for_every_workload(workload, tmp_path):
    """Satellite: for every registry workload, a fault injected mid-pass
    must restore the module byte-identically to the pre-pass snapshot."""
    from repro.workloads.registry import get

    module = get(workload).compile()
    noelle = Noelle(module)
    manager = PassManager(
        noelle, crash_dir=tmp_path, fault_plan=FaultPlan.from_spec("verify:1")
    )
    before = print_module(module)
    result = manager.run_registered("licm")
    assert result.rolled_back
    assert print_module(module) == before
    verify_module(module)
    bundle_dirs = list(tmp_path.iterdir())
    assert len(bundle_dirs) == 1
    assert (bundle_dirs[0] / "module.ir").read_text() == before
