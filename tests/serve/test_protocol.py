"""The serve wire protocol: validation, error records, exit codes."""

import pytest

from repro.serve import protocol
from repro.serve.protocol import (
    EXIT_ENTRY_NOT_FOUND,
    EXIT_STEP_LIMIT,
    EXIT_TRAP,
    ProtocolError,
    TransientServeError,
    error_record,
    service_error,
    status_for_error,
    trap_exit_code,
    validate_request,
)


class TestValidateRequest:
    def test_minimal_run(self):
        request = validate_request({"op": "run", "ir": "x"})
        assert request["op"] == "run"
        assert request["session"] == "default"

    def test_path_op_is_injected(self):
        request = validate_request({"name": "m"}, op="run")
        assert request["op"] == "run"

    def test_body_op_wins_over_path_default(self):
        request = validate_request({"op": "check", "name": "m"}, op="run")
        assert request["op"] == "check"

    def test_not_a_dict(self):
        with pytest.raises(ProtocolError):
            validate_request(["nope"])

    def test_unknown_op(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            validate_request({"op": "transmogrify"})

    def test_compile_needs_name(self):
        with pytest.raises(ProtocolError, match="name"):
            validate_request({"op": "compile", "source": "s"})

    def test_compile_needs_exactly_one_input(self):
        with pytest.raises(ProtocolError, match="exactly one"):
            validate_request({"op": "compile", "name": "m"})
        with pytest.raises(ProtocolError, match="exactly one"):
            validate_request(
                {"op": "compile", "name": "m", "source": "s", "ir": "i"}
            )

    def test_run_needs_name_or_ir(self):
        with pytest.raises(ProtocolError, match="name.*or inline"):
            validate_request({"op": "run"})

    def test_deadline_bounds(self):
        validate_request({"op": "run", "name": "m", "deadline_s": 1.5})
        with pytest.raises(ProtocolError, match="deadline_s"):
            validate_request({"op": "run", "name": "m", "deadline_s": 0})
        with pytest.raises(ProtocolError, match="deadline_s"):
            validate_request({"op": "run", "name": "m", "deadline_s": 1e9})
        with pytest.raises(ProtocolError, match="deadline_s"):
            validate_request({"op": "run", "name": "m", "deadline_s": True})

    def test_technique_default_and_validation(self):
        request = validate_request({"op": "parallelize", "name": "m"})
        assert request["technique"] == "doall"
        with pytest.raises(ProtocolError, match="technique"):
            validate_request(
                {"op": "parallelize", "name": "m", "technique": "magic"}
            )

    def test_args_must_be_numbers(self):
        validate_request({"op": "run", "name": "m", "args": [1, 2.5]})
        with pytest.raises(ProtocolError, match="args"):
            validate_request({"op": "run", "name": "m", "args": ["x"]})

    def test_int_fields(self):
        with pytest.raises(ProtocolError, match="cores"):
            validate_request({"op": "run", "name": "m", "cores": 0})
        with pytest.raises(ProtocolError, match="step_limit"):
            validate_request({"op": "run", "name": "m", "step_limit": "big"})

    def test_session_must_be_nonempty_string(self):
        with pytest.raises(ProtocolError, match="session"):
            validate_request({"op": "run", "name": "m", "session": ""})


class TestErrorRecord:
    def test_shape(self):
        try:
            raise ValueError("boom")
        except ValueError as error:
            record = error_record(error)
        assert record["kind"] == "ValueError"
        assert record["message"] == "boom"
        assert record["scope"] == "request"
        assert record["retryable"] is False
        assert "boom" in record["traceback"]

    def test_transient_is_retryable_and_service_scope(self):
        # Even when recorded with the default request scope (the worker
        # loop does), a transient failure is the service layer's fault.
        record = error_record(TransientServeError("blip"))
        assert record["retryable"] is True
        assert record["scope"] == "service"

    def test_service_error_builder(self):
        record = service_error("DeadlineExceeded", "too slow", exitcode=-9)
        assert record["scope"] == "service"
        assert record["exitcode"] == -9

    def test_no_traceback_when_disabled(self):
        record = error_record(ValueError("x"), include_traceback=False)
        assert "traceback" not in record


class TestStatusMapping:
    def test_client_errors_are_400(self):
        assert status_for_error({"kind": "ProtocolError"}) == 400
        assert status_for_error({"kind": "EntryNotFoundError"}) == 400

    def test_service_errors(self):
        assert status_for_error({"kind": "DeadlineExceeded"}) == 504
        assert status_for_error({"kind": "WorkerCrashed"}) == 502
        assert status_for_error({"kind": "WorkerUnavailable"}) == 503
        assert status_for_error({"kind": "CircuitOpen"}) == 503

    def test_unknown_is_500(self):
        assert status_for_error({"kind": "Weird"}) == 500


class TestExitCodes:
    def test_documented_taxonomy_is_stable(self):
        # These values are documented in README/DESIGN and parsed by
        # scripts; changing them is a breaking change.
        assert EXIT_TRAP == 3
        assert EXIT_STEP_LIMIT == 4
        assert EXIT_ENTRY_NOT_FOUND == 5
        assert protocol.WORKER_KILL_EXIT == 86

    def test_trap_exit_code(self):
        assert trap_exit_code(None) == 0
        assert trap_exit_code("StepLimitExceeded") == EXIT_STEP_LIMIT
        assert trap_exit_code("MemoryTrap") == EXIT_TRAP
