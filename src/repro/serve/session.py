"""Worker-side job execution over warm per-session state.

This module runs *inside* a supervised worker process.  Each worker
owns a dict of :class:`SessionState` namespaces; because the daemon
routes a session to the same worker every time (session affinity), the
modules, :class:`~repro.core.noelle.Noelle` facades (PDG shards, loop
forests, alias memos), and per-module
:class:`~repro.interp.engine.ExecutionEngine` code caches built for a
session's first request stay resident and warm for every later request
— the paper's build-once-amortize-everywhere economics applied to
requests instead of tools.

Fault injection: :func:`execute_job` arms a :class:`FaultPlan` around
each job — from the request's ``faults`` field, or (for first-
generation workers only) from ``NOELLE_FAULTS`` when the env plan names
a service-layer site.  The serve chokepoints behave as documented in
``repro.robust.faults``: ``serve_exec`` raises into a structured error,
``serve_flaky`` raises a retryable :class:`TransientServeError`, and
``serve_kill`` makes the worker ``os._exit`` mid-request so the
supervisor's crash handling is exercised for real.
"""

from __future__ import annotations

import hashlib
import os
import time

from .. import cache
from ..core.noelle import Noelle
from ..interp.interp import StepLimitExceeded
from ..ir import print_module, verify_module
from ..perf import STATS
from ..robust import faults
from ..robust.faults import SERVE_SITES, FaultPlan, InjectedFault
from ..tools.pipeline import execute, load, parallelize
from .protocol import (
    WORKER_KILL_EXIT,
    ProtocolError,
    TransientServeError,
    trap_exit_code,
)


class SessionState:
    """Everything kept warm for one session namespace."""

    def __init__(self, name: str):
        self.name = name
        self.modules: dict[str, object] = {}
        #: One facade per module: owns the warm PDG shards / loop info.
        self.noelles: dict[str, Noelle] = {}
        #: Content hash per module name (warm-compile detection).
        self.hashes: dict[str, str] = {}
        #: How many non-compile ops have touched each module.
        self.touches: dict[str, int] = {}


#: The worker's resident sessions (one dict per worker process).
_SESSIONS: dict[str, SessionState] = {}

#: Env-armed service fault plan (first-generation workers only).
_ENV_PLAN: FaultPlan | None = None

#: Request-level fault specs that already fired in this worker, so a
#: retried request does not re-arm the same one-shot fault.
_CONSUMED_SPECS: set[str] = set()


def configure_worker(arm_env_faults: bool = True) -> None:
    """Worker-process initializer.

    Arms the ``NOELLE_FAULTS`` plan at the service layer only when (a)
    this is a first-generation worker — a supervisor-spawned replacement
    must not re-die on the same seed forever — and (b) the plan names a
    service site; analysis-site env plans keep their existing scope (the
    pass manager's transactions) and never fail whole requests.
    """
    global _ENV_PLAN
    plan = FaultPlan.from_env()
    if arm_env_faults and plan is not None and plan.site in SERVE_SITES:
        _ENV_PLAN = plan
    else:
        _ENV_PLAN = None
    _SESSIONS.clear()
    _CONSUMED_SPECS.clear()


def _plan_for(job: dict) -> FaultPlan | None:
    spec = job.get("faults")
    if spec:
        if spec in _CONSUMED_SPECS:
            return None
        return FaultPlan.from_spec(spec)
    return _ENV_PLAN


def _service_checkpoint() -> None:
    """Visit the service-layer fault sites (no-ops unless armed)."""
    try:
        faults.checkpoint("serve_kill")
    except InjectedFault:
        # Simulate an abrupt kill (OOM/SIGKILL) mid-request: no reply,
        # no cleanup — the supervisor must notice and recover.
        os._exit(WORKER_KILL_EXIT)
    try:
        faults.checkpoint("serve_flaky")
    except InjectedFault as fault:
        raise TransientServeError(
            f"injected transient service fault ({fault})"
        ) from fault
    faults.checkpoint("serve_exec")


def execute_job(job: dict) -> dict:
    """Run one validated request; returns ``{"result", "meta"}``.

    Exceptions propagate — the worker loop converts them into
    structured error records on the wire.
    """
    started = time.perf_counter()
    op = job.get("op")
    handler = _OPS.get(op)
    if handler is None:
        raise ProtocolError(f"unknown op {op!r}")
    session = job.get("session", "default")
    state = _SESSIONS.setdefault(session, SessionState(session))
    plan = _plan_for(job)
    compiles_before = STATS.get("engine.compiles")
    hits_before = STATS.get("engine.cache_hits")
    cache_hits_before = STATS.get("cache.hits")
    cache_misses_before = STATS.get("cache.misses")
    try:
        with faults.armed(plan):
            _service_checkpoint()
            result = handler(job, state)
    finally:
        spec = job.get("faults")
        if spec and plan is not None and plan.fired:
            _CONSUMED_SPECS.add(spec)
    return {
        "result": result,
        "meta": {
            "session": session,
            "op": op,
            "pid": os.getpid(),
            "seconds": time.perf_counter() - started,
            "engine_compiles": STATS.get("engine.compiles") - compiles_before,
            "engine_cache_hits": STATS.get("engine.cache_hits") - hits_before,
            "cache_hits": STATS.get("cache.hits") - cache_hits_before,
            "cache_misses": STATS.get("cache.misses") - cache_misses_before,
            "resident_modules": len(state.modules),
        },
    }


# -- module resolution --------------------------------------------------------

def _resolve(job: dict, state: SessionState):
    """(module, noelle, name, warm) for one request.

    Named modules come from the session (warm after their first use);
    inline ``ir`` is parsed fresh per request and kept nowhere (cold).
    """
    name = job.get("name")
    if name:
        module = state.modules.get(name)
        if module is None:
            raise ProtocolError(
                f"session {state.name!r} has no module {name!r}; "
                f"compile it first"
            )
        warm = state.touches.get(name, 0) > 0
        state.touches[name] = state.touches.get(name, 0) + 1
        return module, state.noelles[name], name, warm
    module = cache.load_ir_text(job["ir"], "inline")
    verify_module(module)
    return module, load(module), None, False


# -- operations ---------------------------------------------------------------

def _op_compile(job: dict, state: SessionState) -> dict:
    name = job["name"]
    source = job.get("source")
    text = source if source is not None else job["ir"]
    digest = hashlib.sha256(text.encode()).hexdigest()
    if state.hashes.get(name) == digest:
        # Identical content: keep the resident module (and with it the
        # warm PDG shards and compiled code) instead of rebuilding.
        module = state.modules[name]
        warm = True
    else:
        if source is not None:
            # Warm path: a replacement worker after a crash (or any
            # sibling worker) decodes the cached binary module and
            # pre-hydrated PDG/engine artifacts instead of recompiling.
            module = cache.cached_compile(source, name)
        else:
            module = cache.load_ir_text(job["ir"], name)
        verify_module(module)
        state.modules[name] = module
        state.noelles[name] = load(module)
        state.hashes[name] = digest
        state.touches[name] = 0
        warm = False
    return {
        "name": name,
        "functions": sum(1 for _ in module.defined_functions()),
        "instructions": module.num_instructions(),
        "warm": warm,
    }


def _op_parallelize(job: dict, state: SessionState) -> dict:
    module, noelle, name, warm = _resolve(job, state)
    _service_checkpoint()
    response = {
        "parallelized": 0,
        "rolled_back": [],
        "degraded": None,
        "warm": warm,
        "trapped": None,
        "trap_kind": None,
        "exit_code": 0,
    }
    if job.get("mode") == "sequential":
        # Degraded: the breaker is open for this path — serve the
        # sequential module instead of refusing.
        response["degraded"] = "sequential"
        if job.get("emit_ir"):
            response["ir"] = print_module(module)
        return response
    try:
        manager, response["parallelized"] = parallelize(
            noelle,
            job["technique"],
            num_cores=job.get("cores") or 8,
            num_stages=job.get("stages") or 4,
            minimum_hotness=job.get("min_hotness", 0.0),
            crash_dir=job.get("crash_dir"),
            step_limit=job.get("step_limit"),
        )
    except StepLimitExceeded as error:
        # The training run outran the request's budget: a budget kill
        # reported in-band, exactly as the run op reports it.
        response["trapped"] = str(error)
        response["trap_kind"] = "StepLimitExceeded"
        response["exit_code"] = trap_exit_code("StepLimitExceeded")
        return response
    if name:
        # The module mutated: its source hash no longer matches — the
        # next compile of the same text must rebuild, not keep the
        # parallelized module.
        state.hashes.pop(name, None)
    response["rolled_back"] = [
        {
            "pass": r.name,
            "kind": r.error.kind,
            "message": r.error.message,
            "bundle": str(r.bundle) if r.bundle else None,
        }
        for r in manager.rolled_back()
    ]
    if job.get("emit_ir"):
        response["ir"] = print_module(module)
    return response


def _json_value(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def _op_run(job: dict, state: SessionState) -> dict:
    module, _noelle, name, warm = _resolve(job, state)
    _service_checkpoint()
    degraded = job.get("mode") == "reference"
    engine = "reference" if degraded else "compiled"
    result = execute(
        module,
        job.get("entry") or "main",
        job.get("args") or [],
        num_cores=job.get("cores"),
        engine=engine,
        step_limit=job.get("step_limit"),
    )
    # Share whatever this run compiled (engine plans) with sibling and
    # replacement workers.
    cache.publish_artifacts(module, _noelle)
    return {
        "output": [_json_value(v) for v in result.output],
        "return_value": _json_value(result.return_value),
        "cycles": result.cycles,
        "steps": result.steps,
        "trapped": result.trapped,
        "trap_kind": result.trap_kind,
        "exit_code": trap_exit_code(result.trap_kind),
        "engine": engine,
        "degraded": "reference" if degraded else None,
        "warm": warm,
    }


def _op_check(job: dict, state: SessionState) -> dict:
    module, noelle, name, warm = _resolve(job, state)
    _service_checkpoint()
    advisory = job.get("mode") == "advisory"
    checkers = job.get("checkers")
    names = checkers.split(",") if checkers else None
    diagnostics = noelle.run_checks(names=names)
    # Checkers build PDG shards: publish them for other workers.
    cache.publish_artifacts(module, noelle)
    records = [d.to_dict() for d in diagnostics]
    errors = sum(1 for d in records if d.get("severity") == "error")
    warnings = sum(1 for d in records if d.get("severity") == "warning")
    return {
        "diagnostics": records,
        "errors": errors,
        "warnings": warnings,
        "ok": advisory or errors == 0,
        "degraded": "advisory" if advisory else None,
        "warm": warm,
    }


_OPS = {
    "compile": _op_compile,
    "parallelize": _op_parallelize,
    "run": _op_run,
    "check": _op_check,
}
