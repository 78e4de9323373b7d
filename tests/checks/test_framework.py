"""Checker framework: diagnostics, registry, driver, gate flag."""

import pytest

from repro import ir
from repro.ir.builder import build_function
from repro.checks import (
    SEVERITIES,
    CheckFailure,
    Checker,
    Diagnostic,
    all_checker_names,
    checks_enabled,
    has_errors,
    register_checker,
    run_checkers,
    worst_severity,
)
from repro.perf import STATS
from tests.conftest import build_count_loop


class TestDiagnostic:
    def test_round_trips_through_dict(self):
        original = Diagnostic("races", "error", "boom", function="f",
                              location="%x", pass_name="helix")
        data = original.to_dict()
        assert data == {
            "checker": "races", "severity": "error", "message": "boom",
            "function": "f", "location": "%x", "pass": "helix",
        }
        assert Diagnostic.from_dict(data).to_dict() == data

    def test_rejects_unknown_severity(self):
        with pytest.raises(ValueError, match="severity"):
            Diagnostic("lint", "fatal", "nope")

    def test_str_names_checker_and_location(self):
        located = Diagnostic("lint", "info", "dead value",
                             function="f", location="%v")
        assert str(located) == "info: [lint] f:%v: dead value"
        assert str(Diagnostic("lint", "info", "m")) == "info: [lint] <module>: m"

    def test_severity_helpers(self):
        info = Diagnostic("a", "info", "x")
        warning = Diagnostic("a", "warning", "x")
        error = Diagnostic("a", "error", "x")
        assert SEVERITIES == ("info", "warning", "error")
        assert [d.rank for d in (info, warning, error)] == [0, 1, 2]
        assert worst_severity([]) is None
        assert worst_severity([info, warning]) == "warning"
        assert worst_severity([warning, error, info]) == "error"
        assert not has_errors([info, warning])
        assert has_errors([info, error])


class TestRegistry:
    def test_builtin_checkers_are_registered(self):
        assert set(all_checker_names()) >= {"races", "sanitizer", "lint"}

    def test_register_rejects_default_name(self):
        with pytest.raises(ValueError, match="unique name"):
            @register_checker
            class Nameless(Checker):
                pass

    def test_checks_enabled_parses_environment(self):
        assert not checks_enabled({})
        assert not checks_enabled({"NOELLE_CHECKS": ""})
        assert not checks_enabled({"NOELLE_CHECKS": "0"})
        assert checks_enabled({"NOELLE_CHECKS": "1"})
        assert checks_enabled({"NOELLE_CHECKS": "yes"})


def make_dead_value_module():
    module = ir.Module("m")
    fn = module.add_function("f", ir.FunctionType(ir.I64, [ir.I64]), ["n"])
    builder, _ = build_function(fn)
    builder.add(fn.args[0], ir.const_int(1), "dead")
    builder.ret(fn.args[0])
    ir.verify_module(module)
    return module


class TestDriver:
    def test_unknown_checker_rejected(self):
        module, _, _ = build_count_loop()
        with pytest.raises(ValueError, match="unknown checker"):
            run_checkers(module, names=["races", "bogus"])

    def test_clean_module_has_no_findings(self):
        module, _, _ = build_count_loop()
        assert run_checkers(module) == []

    def test_subset_selection(self):
        module = make_dead_value_module()
        all_findings = run_checkers(module)
        lint_only = run_checkers(module, names=["lint"])
        assert [d.checker for d in lint_only] == ["lint"]
        assert len(lint_only) <= len(all_findings)
        assert run_checkers(module, names=["races"]) == []

    def test_driver_feeds_perf_stats(self):
        module = make_dead_value_module()
        before = STATS.snapshot()
        findings = run_checkers(module)
        after = STATS.snapshot()
        assert findings  # the dead value
        assert after.get("checks.runs", 0) == before.get("checks.runs", 0) + 1
        assert (
            after.get("checks.diagnostics.info", 0)
            >= before.get("checks.diagnostics.info", 0) + 1
        )
        # info findings alone do not mark the module as failed
        assert (
            after.get("checks.failed_modules", 0)
            == before.get("checks.failed_modules", 0)
        )
        assert "checks.total" in STATS.timers
        assert "checks.lint" in STATS.timers


class TestCheckFailure:
    def test_previews_the_first_errors(self):
        diagnostics = [
            Diagnostic("races", "error", f"conflict {i}") for i in range(5)
        ]
        diagnostics.append(Diagnostic("lint", "info", "benign"))
        failure = CheckFailure(diagnostics)
        assert "5 checker error(s)" in str(failure)
        assert "conflict 0" in str(failure)
        assert "(2 more)" in str(failure)
        assert failure.diagnostics == diagnostics
