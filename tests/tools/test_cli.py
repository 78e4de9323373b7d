"""End-to-end tests for the repro-noelle command-line interface."""

import os

import pytest

from repro.robust.faults import enabled_in_env as faults_enabled
from repro.tools.cli import main

DEMO_SOURCE = """
int data[300];
int main() {
  int i; int s = 0;
  for (i = 0; i < 300; i = i + 1) { data[i] = i * 5 % 23; }
  for (i = 0; i < 300; i = i + 1) { s = s + data[i]; }
  print_int(s);
  return s;
}
"""

LIB_SOURCE = """
int twice(int x) { return x * 2; }
int unused(int x) { return x - 1; }
"""


@pytest.fixture
def demo_files(tmp_path):
    source = tmp_path / "demo.mc"
    source.write_text(DEMO_SOURCE)
    ir_file = tmp_path / "demo.ir"
    assert main(["whole-ir", str(source), "-o", str(ir_file)]) == 0
    return source, ir_file, tmp_path


class TestWholeIR:
    def test_compile_single(self, demo_files):
        _, ir_file, _ = demo_files
        assert ir_file.exists()
        assert "define @main" in ir_file.read_text()

    def test_compile_multiple(self, tmp_path):
        a = tmp_path / "a.mc"
        a.write_text("int twice(int x);\nint main() { return twice(21); }")
        b = tmp_path / "b.mc"
        b.write_text(LIB_SOURCE)
        out = tmp_path / "linked.ir"
        assert main(["whole-ir", str(a), str(b), "-o", str(out)]) == 0
        assert "define @twice" in out.read_text()

    def test_accepts_ir_inputs(self, demo_files, tmp_path):
        _, ir_file, _ = demo_files
        out = tmp_path / "relinked.ir"
        assert main(["whole-ir", str(ir_file), "-o", str(out)]) == 0


class TestRun:
    def test_run_prints_output(self, demo_files, capsys):
        _, ir_file, _ = demo_files
        assert main(["run", str(ir_file)]) == 0
        captured = capsys.readouterr()
        expected = sum((i * 5) % 23 for i in range(300))
        assert str(expected) in captured.out

    @pytest.mark.parametrize("before", [None, "compiled"])
    def test_engine_flag_does_not_outlive_the_command(
        self, demo_files, monkeypatch, before
    ):
        """``--engine`` selects the engine of this command only: the
        caller's ``NOELLE_ENGINE`` is back afterwards."""
        from repro.perf import STATS

        _, ir_file, _ = demo_files
        if before is None:
            monkeypatch.delenv("NOELLE_ENGINE", raising=False)
        else:
            monkeypatch.setenv("NOELLE_ENGINE", before)
        walked = STATS.get("engine.blocks_reference")
        compiled = STATS.get("engine.blocks_compiled")
        assert main(["--engine", "reference", "run", str(ir_file)]) == 0
        assert STATS.get("engine.blocks_reference") > walked
        assert STATS.get("engine.blocks_compiled") == compiled
        assert os.environ.get("NOELLE_ENGINE") == before


class TestParallelize:
    @pytest.mark.parametrize("technique", ["doall", "helix", "dswp"])
    def test_parallelize_roundtrip(self, demo_files, tmp_path, technique, capsys):
        _, ir_file, _ = demo_files
        out = tmp_path / f"{technique}.ir"
        assert main([
            "parallelize", str(ir_file), "--technique", technique,
            "--cores", "6", "-o", str(out),
        ]) == 0
        # The parallelized IR parses, verifies, and produces the same output.
        capsys.readouterr()
        assert main(["run", str(out), "--cores", "6"]) == 0
        captured = capsys.readouterr()
        expected = sum((i * 5) % 23 for i in range(300))
        assert str(expected) in captured.out


class TestOptimizers:
    def test_licm(self, tmp_path, capsys):
        source = tmp_path / "inv.mc"
        source.write_text("""
int g = 6;
int out[50];
int main() {
  int i;
  for (i = 0; i < 50; i = i + 1) {
    int k = g * 3;
    out[i] = k + i;
  }
  print_int(out[10]);
  return out[10];
}
""")
        ir_file = tmp_path / "inv.ir"
        assert main(["whole-ir", str(source), "-o", str(ir_file)]) == 0
        opt_file = tmp_path / "inv.opt.ir"
        assert main(["licm", str(ir_file), "-o", str(opt_file)]) == 0
        capsys.readouterr()
        assert main(["run", str(opt_file)]) == 0
        assert "28" in capsys.readouterr().out

    def test_dead(self, tmp_path, capsys):
        source = tmp_path / "dead.mc"
        source.write_text(
            "int used(int x) { return x + 1; }\n"
            "int unused(int x) { return x * 9; }\n"
            "int main() { print_int(used(1)); return 0; }"
        )
        ir_file = tmp_path / "dead.ir"
        assert main(["whole-ir", str(source), "-o", str(ir_file)]) == 0
        slim = tmp_path / "slim.ir"
        assert main(["dead", str(ir_file), "-o", str(slim)]) == 0
        text = slim.read_text()
        if not faults_enabled():
            # Under NOELLE_FAULTS the dead pass may roll back; the output
            # must still be valid IR containing the live code.
            assert "@unused" not in text
        assert "@used" in text


class TestReports:
    def test_report(self, demo_files, capsys):
        _, ir_file, _ = demo_files
        assert main(["report", str(ir_file)]) == 0
        out = capsys.readouterr().out
        assert "PDG:" in out
        assert "doall=True" in out

    def test_profile(self, demo_files, capsys):
        _, ir_file, _ = demo_files
        assert main(["profile", str(ir_file)]) == 0
        out = capsys.readouterr().out
        assert "main" in out
        assert "hotness" in out


class TestOneDoor:
    """Every analysis verb takes its facade from ``noelle-load``: a
    configured artifact cache is honoured, and changes nothing printed."""

    @staticmethod
    def _ir_file(tmp_path, name):
        from repro.frontend import compile_source
        from repro.ir import print_module
        from repro.workloads import get

        path = tmp_path / f"{name}.ir"
        path.write_text(print_module(compile_source(get(name).source, name)))
        return path

    def test_report_adopts_published_shards(self, tmp_path, monkeypatch,
                                            capsys):
        from repro import cache
        from repro.core.noelle import Noelle
        from repro.perf import STATS

        path = self._ir_file(tmp_path, "crc32")
        assert main(["report", str(path)]) == 0
        plain = capsys.readouterr().out

        monkeypatch.setenv("NOELLE_CACHE_DIR", str(tmp_path / "cache"))
        module = cache.load_ir_text(path.read_text(), str(path))
        noelle = Noelle(module)
        cache.attach(noelle)
        noelle.pdg().materialize()
        cache.publish_artifacts(module, noelle)

        hydrated = STATS.get("cache.pdg_shards_hydrated")
        builds = STATS.get("pdg.shard_builds")
        assert main(["report", str(path)]) == 0
        assert capsys.readouterr().out == plain
        assert STATS.get("cache.pdg_shards_hydrated") > hydrated
        assert STATS.get("pdg.shard_builds") == builds

    @pytest.mark.parametrize("workload", ["crc32", "susan"])
    @pytest.mark.parametrize("verb", ["report", "parallelize", "check"])
    def test_a_store_changes_nothing_printed_or_written(
        self, verb, workload, tmp_path, monkeypatch, capsys
    ):
        if faults_enabled():
            pytest.skip("a warm store visits fewer fault sites")
        path = self._ir_file(tmp_path, workload)
        out = tmp_path / "out.ir"
        argv = {
            "report": ["report", str(path)],
            "parallelize": ["parallelize", str(path), "--technique", "helix",
                            "--cores", "4", "-o", str(out)],
            "check": ["check", str(path), "--parallelize", "doall",
                      "--cores", "4"],
        }[verb]

        def observed():
            status = main(argv)
            captured = capsys.readouterr()
            written = out.read_text() if out.exists() else None
            return status, captured.out, captured.err, written

        monkeypatch.delenv("NOELLE_CACHE_DIR", raising=False)
        plain = observed()
        monkeypatch.setenv("NOELLE_CACHE_DIR", str(tmp_path / "cache"))
        assert observed() == plain  # cold: a miss, published
        assert observed() == plain  # warm: a hit


class TestAnalyze:
    SOURCE = """
int a[32];
int main() {
  int i;
  for (i = 0; i < 10; i = i + 1) { a[i + 3] = a[i] + 1; }
  return a[12];
}
"""

    def analyze(self, tmp_path, capsys, *extra):
        import json

        source = tmp_path / "dep.mc"
        source.write_text(self.SOURCE)
        assert main(["analyze", str(source), *extra]) == 0
        return json.loads(capsys.readouterr().out)

    def test_loops_json_has_scev_facts(self, tmp_path, capsys):
        report = self.analyze(tmp_path, capsys, "--loops")
        loop = next(
            l for l in report["loops"] if l["function"] == "main"
        )
        assert loop["trip_count"] == 10
        governing = [
            iv for iv in loop["induction_variables"] if iv["governing"]
        ]
        assert governing and governing[0]["start"] == 0
        assert governing[0]["step"] == 1

    def test_dependence_verdicts_reference_accesses(self, tmp_path, capsys):
        report = self.analyze(tmp_path, capsys)
        loop = next(
            l for l in report["loops"] if l["function"] == "main"
        )
        accesses = loop["memory_accesses"]
        assert any("1*i" in (a["affine"] or "") for a in accesses)
        by_kind = {a["kind"]: a["id"] for a in accesses}
        verdicts = {
            (t["a"], t["b"]): t for t in loop["dependence_tests"]
        }
        # Load a[i] at iteration j reads what the store a[i+3] wrote
        # three iterations earlier, hence distance -3 load->store.
        pair = verdicts[(by_kind["load"], by_kind["store"])]
        assert pair["verdict"] == "dependent"
        assert pair["distance"] == -3

    def test_workload_name_resolves(self, capsys):
        import json

        assert main(["analyze", "crc32", "--loops"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert any(l["trip_count"] == 256 for l in report["loops"])


class TestCheck:
    def test_clean_ir_exits_zero(self, demo_files, capsys):
        _, ir_file, _ = demo_files
        assert main(["check", str(ir_file)]) == 0
        err = capsys.readouterr().err
        assert "check: 0 error(s)" in err
        assert "(clean)" in err

    def test_mc_input_and_checker_subset(self, demo_files, capsys):
        source, _, _ = demo_files
        assert main(["check", str(source), "--checkers", "lint"]) == 0

    def test_workload_name_resolves(self, capsys):
        assert main(["check", "lbm"]) == 0
        assert "check:" in capsys.readouterr().err

    def test_unknown_input_is_a_clean_error(self, capsys):
        assert main(["check", "no-such-workload"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro-noelle check: ")
        assert "neither a file nor" in err
        assert len(err.splitlines()) == 1

    def test_parallelize_then_check(self, demo_files, capsys):
        if faults_enabled():
            pytest.skip("parallelization may roll back under NOELLE_FAULTS")
        _, ir_file, _ = demo_files
        assert main(
            ["check", str(ir_file), "--parallelize", "doall", "--cores", "4"]
        ) == 0

    def test_buggy_module_exits_nonzero(self, tmp_path, capsys):
        from repro.ir import print_module
        from tests.checks.fixtures import (
            build_helix_fixture,
            drop_sequential_segments,
        )

        module, noelle = build_helix_fixture()
        drop_sequential_segments(module, noelle)
        path = tmp_path / "buggy.ir"
        path.write_text(print_module(module))
        assert main(["check", str(path)]) == 1
        captured = capsys.readouterr()
        assert "error: [races]" in captured.out
        assert "check: " in captured.err

    def test_oracle_flag_reports_dynamic_races(self, tmp_path, capsys):
        from repro.ir import print_module
        from tests.checks.fixtures import (
            build_helix_fixture,
            drop_sequential_segments,
        )

        module, noelle = build_helix_fixture()
        drop_sequential_segments(module, noelle)
        path = tmp_path / "buggy.ir"
        path.write_text(print_module(module))
        assert main(["check", str(path), "--cores", "4", "--oracle"]) == 1
        captured = capsys.readouterr()
        assert "dynamic: helix region" in captured.out
        assert "dynamic race(s)" in captured.err


class TestRunExitCodes:
    """The documented failure taxonomy of ``repro-noelle run``."""

    def test_success_is_zero(self, demo_files):
        _, ir_file, _ = demo_files
        assert main(["run", str(ir_file)]) == 0

    def test_missing_entry_is_5(self, demo_files, capsys):
        from repro.serve.protocol import EXIT_ENTRY_NOT_FOUND

        _, ir_file, _ = demo_files
        code = main(["run", str(ir_file), "--entry", "does_not_exist"])
        assert code == EXIT_ENTRY_NOT_FOUND
        captured = capsys.readouterr()
        assert "@does_not_exist" in captured.err
        assert "@main" in captured.err  # the available entries are listed

    def test_step_limit_is_4(self, demo_files, capsys):
        from repro.serve.protocol import EXIT_STEP_LIMIT

        _, ir_file, _ = demo_files
        code = main(["run", str(ir_file), "--step-limit", "10"])
        assert code == EXIT_STEP_LIMIT
        assert "STEP LIMIT" in capsys.readouterr().err

    def test_memory_trap_is_3(self, tmp_path, capsys):
        from repro.serve.protocol import EXIT_TRAP

        source = tmp_path / "oob.mc"
        source.write_text(
            "int data[4];\n"
            "int main() {\n"
            "  int i;\n"
            "  for (i = 0; i < 100; i = i + 1) { data[i] = i; }\n"
            "  return data[0];\n"
            "}\n"
        )
        ir_file = tmp_path / "oob.ir"
        assert main(["whole-ir", str(source), "-o", str(ir_file)]) == 0
        code = main(["run", str(ir_file)])
        assert code == EXIT_TRAP
        assert "TRAP" in capsys.readouterr().err

    def test_explicit_entry_runs_it(self, tmp_path, capsys):
        source = tmp_path / "lib.mc"
        source.write_text(
            "int helper() { print_int(42); return 7; }\n"
            "int main() { return 0; }\n"
        )
        ir_file = tmp_path / "lib.ir"
        assert main(["whole-ir", str(source), "-o", str(ir_file)]) == 0
        assert main(["run", str(ir_file), "--entry", "helper"]) == 0
        assert "42" in capsys.readouterr().out
