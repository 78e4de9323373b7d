"""Worker-side session executor, run in-process.

These tests call :func:`execute_job` directly (no worker process), so
they must never arm ``serve_kill`` — that site ``os._exit``'s the
current process.  Kill-fault behaviour is covered end-to-end by the
daemon tests, where the exiting process is a supervised worker.
"""

import pytest

from repro.serve import session as session_mod
from repro.serve.protocol import (
    EXIT_STEP_LIMIT,
    ProtocolError,
    TransientServeError,
)
from repro.serve.session import configure_worker, execute_job
from repro.workloads import registry


@pytest.fixture(autouse=True)
def fresh_worker_state(monkeypatch):
    # In-process tests must never inherit a NOELLE_FAULTS service plan.
    monkeypatch.delenv("NOELLE_FAULTS", raising=False)
    configure_worker(arm_env_faults=False)
    yield
    configure_worker(arm_env_faults=False)


@pytest.fixture(scope="module")
def crc_source():
    return registry.get("crc32").source


def _compile(name="m1", session="s", source=None):
    return execute_job({
        "op": "compile", "session": session, "name": name,
        "source": source if source is not None
        else registry.get("crc32").source,
    })


class TestCompile:
    def test_cold_then_warm(self, crc_source):
        first = _compile(source=crc_source)
        assert first["result"]["warm"] is False
        assert first["result"]["functions"] >= 1
        # Identical content: the resident module (and its caches) stays.
        second = _compile(source=crc_source)
        assert second["result"]["warm"] is True

    def test_changed_content_recompiles(self, crc_source):
        _compile(source=crc_source)
        changed = _compile(source=crc_source + "\n")
        assert changed["result"]["warm"] is False

    def test_sessions_are_isolated(self, crc_source):
        _compile(session="a", source=crc_source)
        with pytest.raises(ProtocolError, match="compile it first"):
            execute_job({"op": "run", "session": "b", "name": "m1"})


class TestRun:
    def test_named_module_runs_and_warms(self, crc_source):
        _compile(source=crc_source)
        first = execute_job({"op": "run", "session": "s", "name": "m1"})
        assert first["result"]["trap_kind"] is None
        assert first["result"]["exit_code"] == 0
        assert first["result"]["warm"] is False
        second = execute_job({"op": "run", "session": "s", "name": "m1"})
        assert second["result"]["warm"] is True
        # The compiled-code cache inside the resident module was reused.
        assert second["meta"]["engine_compiles"] == 0

    def test_missing_entry(self, crc_source):
        _compile(source=crc_source)
        with pytest.raises(Exception) as excinfo:
            execute_job({
                "op": "run", "session": "s", "name": "m1", "entry": "nope",
            })
        assert type(excinfo.value).__name__ == "EntryNotFoundError"

    def test_step_limit_is_a_budget_kill_not_a_crash(self, crc_source):
        _compile(source=crc_source)
        reply = execute_job({
            "op": "run", "session": "s", "name": "m1", "step_limit": 5,
        })
        assert reply["result"]["trap_kind"] == "StepLimitExceeded"
        assert reply["result"]["exit_code"] == EXIT_STEP_LIMIT

    def test_degraded_mode_forces_reference_engine(self, crc_source):
        _compile(source=crc_source)
        reply = execute_job({
            "op": "run", "session": "s", "name": "m1", "mode": "reference",
        })
        assert reply["result"]["engine"] == "reference"
        assert reply["result"]["degraded"] == "reference"


class TestParallelizeAndCheck:
    def test_parallelize_warm_module(self, crc_source):
        _compile(source=crc_source)
        reply = execute_job({
            "op": "parallelize", "session": "s", "name": "m1",
            "technique": "doall", "cores": 4,
        })
        assert reply["result"]["parallelized"] >= 1
        assert reply["result"]["degraded"] is None

    def test_parallelize_profiles_under_the_request_budget(self, crc_source):
        _compile(source=crc_source)
        reply = execute_job({
            "op": "parallelize", "session": "s", "name": "m1",
            "technique": "doall", "step_limit": 5,
        })
        # The same in-band budget kill the run op reports, not an
        # escaped exception after 50M steps.
        assert reply["result"]["trap_kind"] == "StepLimitExceeded"
        assert reply["result"]["exit_code"] == EXIT_STEP_LIMIT
        assert reply["result"]["trapped"] == "exceeded 5 steps"
        assert reply["result"]["parallelized"] == 0
        # Nothing was transformed: the module is still the compiled one.
        again = _compile(source=crc_source)
        assert again["result"]["warm"] is True

    def test_compile_after_parallelize_rebuilds(self, crc_source):
        first = _compile(source=crc_source)
        reply = execute_job({
            "op": "parallelize", "session": "s", "name": "m1",
            "technique": "doall", "cores": 4,
        })
        assert reply["result"]["parallelized"] >= 1
        assert reply["result"]["trap_kind"] is None
        # Same text, but the resident module is the parallelized one.
        second = _compile(source=crc_source)
        assert second["result"]["warm"] is False
        assert (
            second["result"]["instructions"] == first["result"]["instructions"]
        )

    def test_parallelize_degraded_is_a_no_op(self, crc_source):
        _compile(source=crc_source)
        reply = execute_job({
            "op": "parallelize", "session": "s", "name": "m1",
            "technique": "doall", "mode": "sequential", "emit_ir": True,
        })
        assert reply["result"]["parallelized"] == 0
        assert reply["result"]["degraded"] == "sequential"
        assert "define" in reply["result"]["ir"]

    def test_check_clean_module(self, crc_source):
        _compile(source=crc_source)
        reply = execute_job({"op": "check", "session": "s", "name": "m1"})
        assert reply["result"]["ok"] is True
        assert reply["result"]["errors"] == 0

    def test_check_advisory_never_fails(self, crc_source):
        _compile(source=crc_source)
        reply = execute_job({
            "op": "check", "session": "s", "name": "m1", "mode": "advisory",
        })
        assert reply["result"]["ok"] is True
        assert reply["result"]["degraded"] == "advisory"


class TestFaultArming:
    def test_flaky_fault_raises_transient(self, crc_source):
        _compile(source=crc_source)
        with pytest.raises(TransientServeError):
            execute_job({
                "op": "run", "session": "s", "name": "m1",
                "faults": "serve_flaky:1",
            })

    def test_fired_spec_is_consumed_so_a_retry_succeeds(self, crc_source):
        _compile(source=crc_source)
        job = {
            "op": "run", "session": "s", "name": "m1",
            "faults": "serve_flaky:1",
        }
        with pytest.raises(TransientServeError):
            execute_job(job)
        # The retried request carries the same spec; it must not re-arm.
        reply = execute_job(dict(job))
        assert reply["result"]["exit_code"] == 0

    def test_env_plan_for_analysis_site_is_not_armed_at_service_layer(
        self, monkeypatch, crc_source
    ):
        # CI's seeded plans target analysis sites; the service layer must
        # leave them to the pass manager's transactions, not fail requests.
        monkeypatch.setenv("NOELLE_FAULTS", "alias_query:1")
        configure_worker(arm_env_faults=True)
        assert session_mod._ENV_PLAN is None
        reply = _compile(source=crc_source)
        assert reply["result"]["functions"] >= 1

    def test_env_plan_for_serve_site_armed_only_first_generation(
        self, monkeypatch
    ):
        monkeypatch.setenv("NOELLE_FAULTS", "serve_flaky:1")
        configure_worker(arm_env_faults=True)
        assert session_mod._ENV_PLAN is not None
        # A replacement worker (generation > 0) must not re-arm it.
        configure_worker(arm_env_faults=False)
        assert session_mod._ENV_PLAN is None


class TestMeta:
    def test_meta_shape(self, crc_source):
        reply = _compile(source=crc_source)
        meta = reply["meta"]
        assert meta["op"] == "compile"
        assert meta["session"] == "s"
        assert meta["resident_modules"] == 1
        assert meta["seconds"] >= 0.0

    def test_unknown_op_rejected(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            execute_job({"op": "nope", "session": "s"})
