"""The JSON request/response protocol of the serve daemon.

One request is one JSON object POSTed to ``/<op>`` (or with an ``op``
field to ``/api``).  The daemon validates it *before* dispatching to a
worker, so malformed requests are rejected at the front door with a
``BadRequest`` error and never consume a worker slot.

Responses are JSON too::

    {"ok": true,  "result": {...}, "meta": {...}}
    {"ok": false, "error":  {...}, "meta": {...}}

``error`` is a structured record (see :func:`error_record`): exception
kind, message, a ``scope`` separating *request* errors (bad IR, missing
entry point, a program trap) from *service* errors (worker died,
deadline exceeded, circuit open), whether the daemon may retry it, and —
for service errors — the path of the crash bundle the supervisor wrote.

The module also owns the documented process exit codes of
``repro-noelle run``, because the daemon's ``run`` op reports the same
taxonomy in-band (``result["exit_code"]``): callers of either interface
can tell a budget kill from a real trap from a missing entry point.
"""

from __future__ import annotations

import traceback

# -- exit codes (repro-noelle run, and the run op's result["exit_code"]) -------
#
# 0 success, 2 usage error (argparse); the codes below are the
# documented failure taxonomy (``check`` and ``fuzz`` also return 1 when
# they find something).

#: The input was bad (see :data:`INPUT_ERROR_KINDS`): one line on stderr.
EXIT_INPUT_ERROR = 1
#: The program executed a memory trap (out-of-bounds, use-after-free...).
EXIT_TRAP = 3
#: The step budget ran out (``StepLimitExceeded``) — a budget kill, not
#: a program bug.
EXIT_STEP_LIMIT = 4
#: The requested entry point is not a defined function in the module.
EXIT_ENTRY_NOT_FOUND = 5

#: The ``os._exit`` code of a worker killed by an injected
#: ``serve_kill`` fault (distinctive on purpose: tests and bundles can
#: tell an injected kill from a genuine crash).
WORKER_KILL_EXIT = 86

#: Operations the daemon accepts.
OPS = ("compile", "parallelize", "run", "check")

#: Degradation ladder: what each op falls back to when the circuit
#: breaker for its (session, op) is open.  ``compile`` has no degraded
#: mode — it is the base capability — so an open breaker sheds it.
DEGRADED_MODES = {
    "run": "reference",      # compiled engine -> reference walker
    "parallelize": "sequential",  # skip the transform, keep the module
    "check": "advisory",     # findings reported, never failing
}

#: Error kinds the daemon's bounded-retry policy may re-dispatch.
RETRYABLE_KINDS = frozenset({"TransientServeError", "WorkerUnavailable"})

#: Hard caps a request cannot exceed regardless of what it asks for.
MAX_DEADLINE_S = 600.0


class ProtocolError(ValueError):
    """A malformed request, rejected before any worker sees it."""


class TransientServeError(RuntimeError):
    """A failure the daemon is explicitly allowed to retry."""


def error_record(
    error: BaseException,
    scope: str = "request",
    include_traceback: bool = True,
) -> dict:
    """A JSON-able structured record of one failure.

    ``scope`` is ``"request"`` (the client's job failed on its own
    terms) or ``"service"`` (the service layer failed the request:
    worker death, deadline, open breaker) — service errors get crash
    bundles, request errors do not.
    """
    kind = type(error).__name__
    if kind in RETRYABLE_KINDS:
        # Transient failures are the service layer's fault no matter
        # where they were caught — never the client's job failing on
        # its own terms.
        scope = "service"
    record = {
        "kind": kind,
        "message": str(error),
        "scope": scope,
        "retryable": kind in RETRYABLE_KINDS,
    }
    if include_traceback and error.__traceback__ is not None:
        record["traceback"] = "".join(
            traceback.format_exception(type(error), error, error.__traceback__)
        )
    return record


def service_error(
    kind: str, message: str, retryable: bool = False, **extra
) -> dict:
    """A service-scope error record built from parts (no exception)."""
    record = {
        "kind": kind,
        "message": message,
        "scope": "service",
        "retryable": retryable,
    }
    record.update(extra)
    return record


#: Exception kinds that mean *the input was bad*, not that the compiler
#: is: what each parser, decoder and loader raises on malformed bytes,
#: plus the shapes of a malformed request.  The one table both front
#: doors answer from — the daemon with HTTP 400, ``repro-noelle`` with
#: one line on stderr and :data:`EXIT_INPUT_ERROR`.  A kind that is not
#: listed is a bug and must look like one (HTTP 500, a traceback).
INPUT_ERROR_KINDS = frozenset({
    # MiniC front end
    "LexError", "SyntaxErrorMiniC", "CodegenError", "LinkError",
    # textual and binary IR
    "ParseError", "VerificationError",
    "BinFormatError", "BinTruncatedError", "BinVersionError",
    # what was asked for is not there
    "EntryNotFoundError", "KeyError",
    # malformed request
    "ProtocolError", "BadRequest",
    # files that are missing, unreadable, or not text
    "FileNotFoundError", "IsADirectoryError", "NotADirectoryError",
    "PermissionError", "UnicodeDecodeError",
})

#: HTTP status per error kind (default 500).
_STATUS_BY_KIND = {
    **dict.fromkeys(INPUT_ERROR_KINDS, 400),
    "DeadlineExceeded": 504,
    "WorkerCrashed": 502,
    "WorkerUnavailable": 503,
    "CircuitOpen": 503,
    "TransientServeError": 503,
}

#: ``repro-noelle`` exit code per kind of exception that escapes a verb
#: (None: a bug, propagate it).  A missing entry point keeps its own
#: code, and a training run that outlives its budget is the budget kill
#: ``run`` reports.
_EXIT_BY_KIND = {
    **dict.fromkeys(INPUT_ERROR_KINDS, EXIT_INPUT_ERROR),
    "EntryNotFoundError": EXIT_ENTRY_NOT_FOUND,
    "StepLimitExceeded": EXIT_STEP_LIMIT,
}


def status_for_error(record: dict) -> int:
    return _STATUS_BY_KIND.get(record.get("kind", ""), 500)


def input_error_exit_code(kind: str) -> int | None:
    return _EXIT_BY_KIND.get(kind)


def trap_exit_code(trap_kind: str | None) -> int:
    """Map a recorded trap kind to the documented exit code."""
    if trap_kind is None:
        return 0
    if trap_kind == "StepLimitExceeded":
        return EXIT_STEP_LIMIT
    return EXIT_TRAP


# -- request validation --------------------------------------------------------

def _require_str(request: dict, key: str, default=None) -> str | None:
    value = request.get(key, default)
    if value is default:
        return default
    if not isinstance(value, str) or not value:
        raise ProtocolError(f"field {key!r} must be a non-empty string")
    return value


def _require_int(request: dict, key: str, default=None, minimum=1):
    value = request.get(key, default)
    if value is default:
        return default
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"field {key!r} must be an integer")
    if value < minimum:
        raise ProtocolError(f"field {key!r} must be >= {minimum}")
    return value


def validate_request(payload: object, op: str | None = None) -> dict:
    """Normalize and validate one request; raises :class:`ProtocolError`.

    Returns a fresh dict with ``op`` and ``session`` always present.
    """
    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")
    request = dict(payload)
    if op is not None:
        request.setdefault("op", op)
    op_name = request.get("op")
    if op_name not in OPS:
        raise ProtocolError(
            f"unknown op {op_name!r}; expected one of {', '.join(OPS)}"
        )
    session = request.get("session", "default")
    if not isinstance(session, str) or not session:
        raise ProtocolError("field 'session' must be a non-empty string")
    request["session"] = session

    deadline = request.get("deadline_s")
    if deadline is not None:
        if isinstance(deadline, bool) or not isinstance(deadline, (int, float)):
            raise ProtocolError("field 'deadline_s' must be a number")
        if not 0 < deadline <= MAX_DEADLINE_S:
            raise ProtocolError(
                f"field 'deadline_s' must be in (0, {MAX_DEADLINE_S:g}]"
            )

    _require_str(request, "name")
    _require_str(request, "source")
    _require_str(request, "ir")
    _require_str(request, "entry")
    _require_str(request, "faults")
    _require_int(request, "cores")
    _require_int(request, "stages")
    _require_int(request, "step_limit")

    if op_name == "compile":
        if not request.get("name"):
            raise ProtocolError("compile requires a 'name' to store under")
        if bool(request.get("source")) == bool(request.get("ir")):
            raise ProtocolError(
                "compile requires exactly one of 'source' (MiniC) or "
                "'ir' (textual IR)"
            )
    else:
        if not request.get("name") and not request.get("ir"):
            raise ProtocolError(
                f"{op_name} requires a session module 'name' or inline 'ir'"
            )

    technique = request.get("technique")
    if op_name == "parallelize":
        technique = technique or "doall"
        if technique not in ("doall", "helix", "dswp"):
            raise ProtocolError(
                f"unknown technique {technique!r}; expected doall/helix/dswp"
            )
        request["technique"] = technique

    engine = request.get("engine")
    if engine is not None and engine not in ("compiled", "reference"):
        raise ProtocolError(
            f"unknown engine {engine!r}; expected compiled/reference"
        )

    mode = request.get("mode")
    if mode is not None and mode not in DEGRADED_MODES.values():
        raise ProtocolError(f"unknown mode {mode!r}")

    args = request.get("args")
    if args is not None:
        if not isinstance(args, list) or not all(
            isinstance(a, (int, float)) for a in args
        ):
            raise ProtocolError("field 'args' must be a list of numbers")
    return request
