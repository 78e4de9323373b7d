"""The transactional pass manager.

Every transform entry point in the repository (``helix_pipeline``, the
``repro-noelle`` CLI, the regression harness) routes its passes through
:class:`PassManager`.  A pass runs as a checkpointed transaction:

1. **snapshot** — the module is serialized with the printer (the
   printer→parser round trip is identity, so the text is a faithful,
   byte-exact checkpoint) and a copy is taken of the module's metadata
   and of each function's, keyed by function name (text is the
   metadata-free form, and no instruction carries metadata);
2. **run** — the pass body executes under a cooperative wall-clock
   deadline, :data:`DEADLINE_S` (checked at every instrumented chokepoint
   and once more when the body returns);
3. **verify** — ``verify_module`` must accept the transformed module.

Any exception, deadline overrun, verifier rejection, or injected fault
rolls the module back *in place* to the byte-identical snapshot, drops
every cached analysis of the attached
:class:`~repro.core.noelle.Noelle` facade, records a
:class:`~repro.robust.diagnostics.CrashBundle` (written to ``crash_dir``
when one is configured), and the manager moves on to the next pass —
graceful degradation instead of a stack trace and a corrupt module.
"""

from __future__ import annotations

import copy
import importlib

from ..interp.engine import invalidate_module
from ..ir import parse_module, print_module, verify_module
from ..perf import STATS
from . import faults
from .diagnostics import CrashBundle, TransformError
from .faults import Budget, FaultPlan

#: Wall-clock budget of one transaction (seconds).  Generous for the
#: simulated workloads; the point is bounding a wedged pass, not
#: policing normal variance.
DEADLINE_S = 60.0


class _Snapshot:
    """A byte-exact checkpoint: IR text plus the metadata the printer
    does not write.  Restored at most once."""

    __slots__ = ("text", "module_metadata", "function_metadata")

    def __init__(self, text, module_metadata, function_metadata):
        self.text = text
        self.module_metadata = module_metadata
        #: Function name -> that function's metadata.
        self.function_metadata = function_metadata


class PassResult:
    """What happened to one transaction."""

    __slots__ = ("name", "status", "value", "error", "seconds", "bundle",
                 "diagnostics")

    def __init__(self, name: str):
        self.name = name
        self.status = "ok"
        #: The pass body's return value (None when rolled back).
        self.value = None
        self.error: TransformError | None = None
        self.seconds = 0.0
        #: Path of the written crash bundle, when crash_dir was set.
        self.bundle = None
        #: Checker findings from the post-pass gate (empty when the gate
        #: is off or nothing was reported).
        self.diagnostics = []

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def rolled_back(self) -> bool:
        return self.status == "rolled_back"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        detail = f": {self.error.kind}" if self.error else ""
        return f"<PassResult {self.name} {self.status}{detail}>"


class PassManager:
    """Runs passes as rollback-protected transactions over one module."""

    def __init__(
        self,
        noelle=None,
        crash_dir=None,
        fault_plan: "FaultPlan | str | None" = "env",
        checks: bool | None = None,
    ):
        self.noelle = noelle
        self.crash_dir = crash_dir
        #: Post-pass checker gate; None defers to NOELLE_CHECKS.
        if checks is None:
            from ..checks.base import checks_enabled

            checks = checks_enabled()
        self.checks = checks
        #: The default "env" reads NOELLE_FAULTS; pass an explicit plan
        #: for deterministic tests, or None to disable injection outright.
        if fault_plan == "env":
            fault_plan = FaultPlan.from_env()
        self.fault_plan = fault_plan
        self.results: list[PassResult] = []
        self.bundles: list[CrashBundle] = []

    @property
    def module(self):
        if self.noelle is None:
            raise RuntimeError("PassManager is not bound to a Noelle facade")
        return self.noelle.module

    def rebind(self, noelle) -> None:
        """Point the manager at a fresh facade over the *same* module."""
        if self.noelle is not None and noelle.module is not self.noelle.module:
            raise ValueError("rebind() must keep the same module")
        self.noelle = noelle

    # -- transactions --------------------------------------------------------------

    def run(self, name: str, body) -> PassResult:
        """Run ``body(noelle)`` as one transaction; never raises on pass
        failure."""
        result = PassResult(name)
        budget = Budget(DEADLINE_S)
        snapshot: _Snapshot | None = None
        phase = "snapshot"
        try:
            with faults.armed(self.fault_plan, budget):
                snapshot = self._snapshot()
                phase = "run"
                result.value = body(self.noelle)
                budget.check()
                phase = "verify"
                verify_module(self.module)
                if self.checks:
                    phase = "check"
                    self._check_gate(result)
        except Exception as error:
            self._rollback(result, snapshot, error, phase, budget)
        else:
            STATS.count("passmanager.ok")
        finally:
            result.seconds = budget.elapsed()
            self.results.append(result)
        return result

    def _check_gate(self, result: PassResult) -> None:
        """Run the checker suite on the transformed module; ERROR findings
        fail the transaction (→ rollback) like a verifier rejection."""
        from ..checks.base import CheckFailure, run_checkers
        from ..checks.diagnostics import has_errors

        result.diagnostics = run_checkers(self.module, self.noelle)
        if has_errors(result.diagnostics):
            raise CheckFailure(result.diagnostics)

    def run_registered(self, name: str, **options) -> PassResult:
        """Run a pass from :data:`PASSES` by name (transactional)."""
        return self.run(*build_pass(name, **options))

    # -- snapshot / restore --------------------------------------------------------

    def _snapshot(self) -> _Snapshot:
        faults.checkpoint("snapshot")
        with STATS.timer("passmanager.snapshot"):
            module = self.module
            return _Snapshot(
                print_module(module),
                *copy.deepcopy((
                    module.metadata,
                    {name: fn.metadata for name, fn in module.functions.items()},
                )),
            )

    def _restore(self, snapshot: _Snapshot) -> None:
        """Swap the snapshot back into the *same* Module object, so every
        caller holding a reference sees the rolled-back program."""
        module = self.module
        fresh = parse_module(snapshot.text, module.name)
        module.functions = fresh.functions
        module.globals = fresh.globals
        module.structs = fresh.structs
        module.metadata = snapshot.module_metadata
        for name, fn in module.functions.items():
            fn.parent = module
            fn.metadata = snapshot.function_metadata[name]
        restored = print_module(module)
        if restored != snapshot.text:
            raise RuntimeError(
                f"rollback of module {module.name!r} is not byte-identical "
                "(printer/parser round-trip drift)"
            )
        # Every Function object was just replaced: compiled code keyed to
        # the old bodies must never run again.  ``_rollback`` also does a
        # full ``noelle.invalidate()``, but restore must be safe on its
        # own — a rolled-back module never executes stale code.
        invalidate_module(module)

    def _rollback(self, result, snapshot, error, phase, budget) -> None:
        with faults.suspended():
            if snapshot is None:
                # The fault fired while *taking* the snapshot: the module
                # is untouched; capture it now for the bundle.
                snapshot = self._snapshot()
            else:
                self._restore(snapshot)
            verify_module(self.module)  # the survivor must be sound
            self.noelle.invalidate()  # caches reference dead instructions
            result.status = "rolled_back"
            result.error = TransformError.from_exception(
                result.name,
                phase,
                error,
                fault=self.fault_plan.describe() if self.fault_plan else None,
                seconds=budget.elapsed(),
            )
            bundle = CrashBundle(
                len(self.bundles), result.name, snapshot.text, result.error,
                diagnostics=[d.to_dict() for d in result.diagnostics],
            )
            if self.crash_dir is not None:
                result.bundle = bundle.write(self.crash_dir)
            self.bundles.append(bundle)
            STATS.count("passmanager.rollbacks")

    # -- reporting -----------------------------------------------------------------

    def rolled_back(self) -> list[PassResult]:
        return [r for r in self.results if r.rolled_back]


# -- the pass registry -------------------------------------------------------------
#
# One row per pass: where its class lives, imported when the pass is built
# so loading the pass manager never drags in every transform (and never
# cycles through repro.core).  The registry declares no option of its own:
# a pass's constructor and ``run`` are the one home of each option and its
# default.

PASSES = {
    "doall": ("..xforms.doall", "DOALL"),
    "dswp": ("..xforms.dswp", "DSWP"),
    "helix": ("..xforms.helix", "HELIX"),
    "licm": ("..xforms.licm", "LICM"),
    "perspective": ("..xforms.perspective", "Perspective"),
    "dead": ("..xforms.dead", "DeadFunctionEliminator"),
    "coos": ("..xforms.coos", "CompilerTiming"),
    "prvjeeves": ("..xforms.prvjeeves", "PRVJeeves"),
    "timesqueezer": ("..xforms.timesqueezer", "TimeSqueezer"),
    "carat": ("..xforms.carat", "CARAT"),
    "rm-lc-dependences": (
        "..tools.rm_lc_dependences", "RemoveLoopCarriedDependences"
    ),
}


def build_pass(name: str, **options):
    """Build pass ``name`` from ``options``: ``(name, body)``, where
    ``body(noelle)`` runs it over a facade.

    The options that the pass's ``run`` takes go to ``run`` and the rest to
    its constructor, which runs here: an unknown name, an option the pass
    does not take or a value its constructor refuses raises before any
    transaction starts.
    """
    if name not in PASSES:
        raise ValueError(f"unknown tool {name!r}")
    module, attribute = PASSES[name]
    cls = getattr(importlib.import_module(module, __package__), attribute)
    code = cls.run.__code__
    takes = code.co_varnames[1:code.co_argcount + code.co_kwonlyargcount]
    run_options = {key: options.pop(key) for key in list(options) if key in takes}
    tool = cls(None, **options)

    def body(noelle):
        tool.noelle = noelle
        return tool.run(**run_options)

    return name, body
