"""The front doors agree, and neither one leaks.

``repro-noelle`` (``cli.main``), the serve worker (``execute_job``) and
``noelle-bin`` (``make_binary(...).run()``) are shells over the verbs of
``repro.tools.pipeline``: the same request must produce the same module,
the same run and the same failure through each of them, and bad input
must come back as a structured answer from both the CLI and the daemon.
"""

from typing import NamedTuple

import pytest

from repro.frontend import compile_source
from repro.interp import interp
from repro.ir import ParseError, parse_module, print_module, write_module
from repro.robust.diagnostics import EntryNotFoundError
from repro.serve.daemon import Supervisor
from repro.serve.protocol import (
    EXIT_ENTRY_NOT_FOUND,
    EXIT_INPUT_ERROR,
    EXIT_STEP_LIMIT,
    EXIT_TRAP,
    trap_exit_code,
)
from repro.serve.session import configure_worker, execute_job
from repro.tools.cli import main
from repro.tools.pipeline import (
    TECHNIQUES, execute, load, make_binary, parallelize,
)
from repro.workloads import registry


@pytest.fixture(autouse=True)
def fresh_worker_state(monkeypatch):
    # In-process execute_job must never inherit a service fault plan.
    monkeypatch.delenv("NOELLE_FAULTS", raising=False)
    configure_worker(arm_env_faults=False)
    yield
    configure_worker(arm_env_faults=False)


def _ir_text(source: str, name: str = "program") -> str:
    return print_module(compile_source(source, name))


def _below_header(text: str) -> str:
    """Module text without its ``; module NAME`` line (each door names
    its input its own way)."""
    header, _, body = text.partition("\n")
    assert header.startswith("; module ")
    return body


# -- (a) parity ---------------------------------------------------------------


class TestParallelizeParity:
    @pytest.mark.parametrize("technique", TECHNIQUES)
    def test_cli_and_serve_write_the_same_module(self, technique, tmp_path):
        text = _ir_text(registry.get("susan").source, "susan")
        path = tmp_path / "susan.ir"
        path.write_text(text)
        out = tmp_path / "par.ir"
        assert main([
            "parallelize", str(path), "--technique", technique,
            "--cores", "4", "--stages", "3", "--min-hotness", "0.01",
            "-o", str(out),
        ]) == 0
        reply = execute_job({
            "op": "parallelize", "ir": text, "technique": technique,
            "cores": 4, "stages": 3, "min_hotness": 0.01, "emit_ir": True,
        })
        assert reply["result"]["parallelized"] >= 1
        assert _below_header(reply["result"]["ir"]) == _below_header(
            out.read_text()
        )


class TestWidthBelowOne:
    """A core or stage count below 1 would commit a loop that never runs;
    ``parallelize`` refuses it before the training run, and the module
    still prints its reference output."""

    @pytest.mark.parametrize("workload", ["crc32", "blackscholes"])
    @pytest.mark.parametrize("technique, width", [
        ("doall", {"num_cores": 0}), ("dswp", {"num_stages": 0}),
    ])
    def test_parallelize_refuses_it(self, workload, technique, width):
        reference = execute(registry.get(workload).compile())
        module = registry.get(workload).compile()
        noelle = load(module)
        with pytest.raises(ValueError, match="must be >= 1, got 0"):
            parallelize(noelle, technique, **width)
        assert noelle.profile() is None  # no training run
        result = execute(module)
        assert result.trapped is None
        assert result.output == reference.output


CLEAN = "int main() { print_int(6 * 7); print_float(1.5); return 3; }"
TRAPS = """
int data[4];
int main() {
  int i;
  for (i = 0; i < 100; i = i + 1) { data[i] = i; print_int(i); }
  return data[0];
}
"""
SPINS = "int main() { int i = 0; while (1) { i = i + 1; } return i; }"


class TestRunParity:
    """``run`` through the CLI, the serve op and ``noelle-bin``."""

    def _through_all_doors(self, source, tmp_path, capsys, step_limit=None):
        text = _ir_text(source)
        path = tmp_path / "program.ir"
        path.write_text(text)
        budget = [] if step_limit is None else ["--step-limit", str(step_limit)]
        capsys.readouterr()
        code = main(["run", str(path), "--cores", "4", *budget])
        captured = capsys.readouterr()
        job = {"op": "run", "ir": text, "cores": 4}
        if step_limit is not None:
            job["step_limit"] = step_limit
        served = execute_job(job)["result"]
        previous = interp.set_step_budget(step_limit)
        try:
            binary = make_binary(compile_source(source), num_cores=4).run()
        finally:
            interp.set_step_budget(previous)
        # One run, three reports of it.
        assert captured.out.splitlines() == [str(v) for v in binary.output]
        assert served["output"] == binary.output
        assert served["cycles"] == binary.cycles
        assert served["steps"] == binary.steps
        assert served["trapped"] == binary.trapped
        assert served["trap_kind"] == binary.trap_kind
        assert code == served["exit_code"] == trap_exit_code(binary.trap_kind)
        return code, captured.err, binary

    def test_clean_run(self, tmp_path, capsys):
        code, err, binary = self._through_all_doors(CLEAN, tmp_path, capsys)
        assert code == 0 and binary.trapped is None
        assert binary.output == [42, 1.5]
        assert f"[{binary.cycles} cycles on 4 cores]" in err

    def test_memory_trap(self, tmp_path, capsys):
        code, err, binary = self._through_all_doors(TRAPS, tmp_path, capsys)
        assert code == EXIT_TRAP and binary.trap_kind == "MemoryTrap"
        assert binary.output  # the partial output is reported too
        assert f"TRAP: {binary.trapped}" in err

    def test_budget_kill(self, tmp_path, capsys):
        code, err, binary = self._through_all_doors(
            SPINS, tmp_path, capsys, step_limit=5_000
        )
        assert code == EXIT_STEP_LIMIT
        assert binary.trap_kind == "StepLimitExceeded"
        assert binary.trapped == "exceeded 5000 steps"
        assert f"STEP LIMIT: {binary.trapped}" in err

    def test_missing_entry(self, tmp_path, capsys):
        text = _ir_text(CLEAN)
        path = tmp_path / "program.ir"
        path.write_text(text)
        assert main(["run", str(path), "--entry", "nope"]) == EXIT_ENTRY_NOT_FOUND
        err = capsys.readouterr().err
        with pytest.raises(EntryNotFoundError) as served:
            execute_job({"op": "run", "ir": text, "entry": "nope"})
        with pytest.raises(EntryNotFoundError) as binary:
            make_binary(compile_source(CLEAN)).run(entry="nope")
        assert str(served.value) == str(binary.value)
        assert err == f"repro-noelle run: EntryNotFoundError: {binary.value}\n"


# -- (b) the input-error table -------------------------------------------------


@pytest.fixture(scope="module")
def supervisor():
    supervisor = Supervisor(num_workers=1, deadline_s=60.0)
    yield supervisor
    supervisor.stop()


def _write(tmp_path, name, data):
    path = tmp_path / name
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data)
    return str(path)


def _truncated_nir() -> bytes:
    return write_module(compile_source(CLEAN))[:40]


class BadInput(NamedTuple):
    verb: str
    file_name: str
    #: File content; None for "no such file", a callable to build bytes.
    content: object
    kind: str
    exit_code: int
    #: The same input as a serve request, where the daemon takes such input.
    request: dict | None = None
    #: Options after the file name.
    options: tuple[str, ...] = ()


UNVERIFIABLE_IR = "define @main() -> i64 {\nentry:\n  %x = add i64 1, i64 2\n}\n"


def _main_ir(*lines: str, before: tuple[str, ...] = ()) -> str:
    return "\n".join([*before, "define @main() -> i64 {", "entry:", *lines, "}", ""])


#: Malformed IR text, each with the line its ParseError names: the shapes
#: that escaped the reader as a ValueError, KeyError, AttributeError,
#: TypeError or RecursionError, and tokens left over after a complete
#: instruction.
MALFORMED_IR = {
    "constant-pointer-base": (
        _main_ir("  %p = elem_ptr [4 x i64]* 0, i64 1", "  ret i64 0"), 3),
    "phi-without-type": (_main_ir(
        "  br label %l", "l:", "  %x = phi [ %x, %l ], [ 0, %entry ]",
        "  br label %l"), 5),
    "phi-from-a-number": (_main_ir(
        "  br label %l", "l:", "  %x = phi i64 [ 0, 7 ]", "  ret i64 %x"), 5),
    "non-numeric-array-count": (
        _main_ir("  ret i64 0", before=("@g = global [abc x i64]",)), 1),
    "store-through-an-integer": (_main_ir(
        "  %q = add i64 1, i64 2", "  store i64 1, i64 %q", "  ret i64 0"), 4),
    "load-through-an-integer": (
        _main_ir("  %v = load i64, i64 7", "  ret i64 %v"), 3),
    "duplicate-declare": (_main_ir(
        "  ret i64 0", before=("declare @f() -> void", "declare @f() -> void")), 2),
    "store-through-a-mistyped-pointer": (_main_ir(
        "  %p = alloca i64", "  store i64 5, double %p", "  ret i64 0"), 4),
    "add-of-a-mistyped-operand": (_main_ir(
        "  %a = add i64 1, i64 2", "  %b = add i64 %a, double %a",
        "  ret i64 %b"), 4),
    "store-with-a-trailing-token": (_main_ir(
        "  %p = alloca i64", "  store i64 1, i64* %p %p", "  ret i64 0"), 4),
    "ret-with-a-trailing-token": (_main_ir("  ret i64 0 7"), 3),
    "type-nested-past-the-stack": (_main_ir("  ret i64 0", before=(
        "@g = global " + "[1 x " * 3000 + "i64" + "]" * 3000,)), 1),
}

BAD_INPUTS = {
    "missing-file": BadInput(
        "run", "absent.ir", None, "FileNotFoundError", EXIT_INPUT_ERROR,
    ),
    "garbage-ir": BadInput(
        "run", "bad.ir", "this is not IR\n", "ParseError", EXIT_INPUT_ERROR,
        {"op": "run", "ir": "this is not IR\n"},
    ),
    "unverifiable-ir": BadInput(
        "report", "bad.ir", UNVERIFIABLE_IR, "VerificationError",
        EXIT_INPUT_ERROR, {"op": "check", "ir": UNVERIFIABLE_IR},
    ),
    "truncated-nir": BadInput(
        "run", "cut.nir", _truncated_nir, "BinTruncatedError",
        EXIT_INPUT_ERROR,
    ),
    "mc-lex-error": BadInput(
        "whole-ir", "lex.mc", "int main() { return $; }", "LexError",
        EXIT_INPUT_ERROR,
        {"op": "compile", "name": "m", "source": "int main() { return $; }"},
    ),
    "mc-syntax-error": BadInput(
        "compile", "syntax.mc", "int main( {", "SyntaxErrorMiniC",
        EXIT_INPUT_ERROR,
        {"op": "compile", "name": "m", "source": "int main( {"},
    ),
    "mc-semantic-error": BadInput(
        "check", "semantic.mc", "int main() { return x; }", "CodegenError",
        EXIT_INPUT_ERROR,
        {"op": "compile", "name": "m", "source": "int main() { return x; }"},
    ),
    "profile-outlives-budget": BadInput(
        "profile", "spin.mc", SPINS, "StepLimitExceeded", EXIT_STEP_LIMIT,
    ),
    "parallelize-outlives-budget": BadInput(
        "parallelize", "spin.mc", SPINS, "StepLimitExceeded", EXIT_STEP_LIMIT,
    ),
    # A core count below 1 would run a region on no core at all.
    "run-on-zero-cores": BadInput(
        "run", "ok.mc", CLEAN, "ProtocolError", EXIT_INPUT_ERROR,
        {"op": "run", "ir": _ir_text(CLEAN), "cores": 0}, ("--cores", "0"),
    ),
    "parallelize-for-negative-cores": BadInput(
        "parallelize", "ok.mc", CLEAN, "ProtocolError", EXIT_INPUT_ERROR,
        {"op": "parallelize", "ir": _ir_text(CLEAN), "cores": -3},
        ("--cores", "-3"),
    ),
    "check-on-zero-cores": BadInput(
        "check", "ok.mc", CLEAN, "ProtocolError", EXIT_INPUT_ERROR,
        {"op": "check", "ir": _ir_text(CLEAN), "cores": 0}, ("--cores", "0"),
    ),
    # ... and a stage count below 1 would pipeline a loop over no stage.
    "dswp-on-zero-stages": BadInput(
        "parallelize", "ok.mc", CLEAN, "ProtocolError", EXIT_INPUT_ERROR,
        {"op": "parallelize", "ir": _ir_text(CLEAN), "technique": "dswp",
         "stages": 0},
        ("--technique", "dswp", "--stages", "0"),
    ),
    "check-dswp-on-negative-stages": BadInput(
        "check", "ok.mc", CLEAN, "ProtocolError", EXIT_INPUT_ERROR,
        {"op": "check", "ir": _ir_text(CLEAN), "stages": -1},
        ("--parallelize", "dswp", "--stages", "-1"),
    ),
    **{
        f"ir-{case}": BadInput(
            "run", "bad.ir", text, "ParseError", EXIT_INPUT_ERROR,
            {"op": "run", "ir": text},
        )
        for case, (text, _) in MALFORMED_IR.items()
    },
}


@pytest.mark.parametrize("case", sorted(MALFORMED_IR))
def test_malformed_ir_names_its_line(case):
    text, line_no = MALFORMED_IR[case]
    with pytest.raises(ParseError, match=rf"^line {line_no}: "):
        parse_module(text)


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
class TestInputErrorTable:
    def test_cli_answers_in_one_line(self, case, tmp_path, capsys):
        bad = BAD_INPUTS[case]
        content = bad.content() if callable(bad.content) else bad.content
        path = (
            str(tmp_path / bad.file_name)
            if content is None
            else _write(tmp_path, bad.file_name, content)
        )
        previous = interp.set_step_budget(10_000)
        try:
            status = main([bad.verb, path, *bad.options])
        finally:
            interp.set_step_budget(previous)
        captured = capsys.readouterr()
        assert status == bad.exit_code
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith(f"repro-noelle {bad.verb}: {bad.kind}: ")
        assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "case", sorted(c for c in BAD_INPUTS if BAD_INPUTS[c].request is not None)
)
class TestInputErrorTableOverServe:
    def test_daemon_answers_400(self, case, supervisor):
        kind = BAD_INPUTS[case].kind
        request = dict(BAD_INPUTS[case].request, session=f"table-{case}")
        status, body = supervisor.handle(request)
        assert status == 400, body
        assert body["ok"] is False
        assert body["error"]["kind"] == kind
        assert body["error"]["scope"] == "request"
        assert body["error"]["retryable"] is False
        breaker = supervisor._breaker(request["session"], request["op"])
        assert breaker.snapshot() == {
            "state": "closed", "consecutive_failures": 0, "opened_count": 0,
        }
        # The same worker answered: bad input never costs a process.
        assert supervisor.stats()["workers"][0]["restarts"] == 0


# -- (c) a runtime error of the program is a trap -------------------------------

#: IR whose ``main`` stops with a runtime error that is not a memory
#: trap: the program's fault, reported like one, not bad input.
RUNTIME_ERRORS = {
    "division-by-zero": (
        "define @main() -> i64 {\nentry:\n"
        "  %x = sdiv i64 1, i64 0\n  ret i64 %x\n}\n",
        "division by zero",
    ),
    "unreachable": (
        "define @main() -> i64 {\nentry:\n  unreachable\n}\n",
        "executed unreachable",
    ),
}


@pytest.mark.parametrize("case", sorted(RUNTIME_ERRORS))
class TestRuntimeErrorIsATrap:
    def test_cli_prints_one_line(self, case, tmp_path, capsys):
        text, message = RUNTIME_ERRORS[case]
        path = _write(tmp_path, "program.ir", text)
        capsys.readouterr()
        assert main(["run", path]) == EXIT_TRAP
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"TRAP: {message}\n"

    def test_daemon_answers_in_band(self, case, supervisor):
        text, message = RUNTIME_ERRORS[case]
        request = {"op": "run", "ir": text, "session": f"runtime-{case}"}
        status, body = supervisor.handle(request)
        assert status == 200, body
        result = body["result"]
        assert result["trapped"] == message
        assert result["trap_kind"] == "InterpError"
        assert result["exit_code"] == EXIT_TRAP
        assert supervisor.stats()["workers"][0]["restarts"] == 0


def test_a_bug_still_looks_like_one(tmp_path, monkeypatch):
    """An exception that is not in the table is not bad input: both
    doors let it through as the failure it is."""
    from repro.serve.protocol import status_for_error
    from repro.tools import cli

    def broken(args):
        raise RuntimeError("compiler bug")

    monkeypatch.setattr(cli, "_cmd_report", broken)
    path = _write(tmp_path, "ok.mc", CLEAN)
    with pytest.raises(RuntimeError, match="compiler bug"):
        cli.main(["report", path])
    assert status_for_error({"kind": "RuntimeError"}) == 500
