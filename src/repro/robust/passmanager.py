"""The transactional pass manager.

Every transform entry point in the repository (``helix_pipeline``, the
``repro-noelle`` CLI, the regression harness) routes its passes through
:class:`PassManager`.  A pass runs as a checkpointed transaction:

1. **snapshot** — the module is serialized with the printer (the
   printer→parser round trip is identity, so the text is a faithful,
   byte-exact checkpoint) and all module/function/instruction metadata
   is captured positionally;
2. **run** — the pass body executes under a cooperative wall-clock
   deadline (checked at every instrumented chokepoint and once more when
   the body returns) and an interpreter step budget (any interpreter the
   pass spins up is capped, reusing ``StepLimitExceeded``);
3. **verify** — ``verify_module`` must accept the transformed module.

Any exception, deadline overrun, step-budget exhaustion, verifier
rejection, or injected fault rolls the module back *in place* to the
byte-identical snapshot, drops every cached analysis of the attached
:class:`~repro.core.noelle.Noelle` facade, records a
:class:`~repro.robust.diagnostics.CrashBundle` (written to ``crash_dir``
when one is configured), and the manager moves on to the next pass —
graceful degradation instead of a stack trace and a corrupt module.
"""

from __future__ import annotations

import copy

from ..interp import interp as _interp
from ..interp.engine import invalidate_module
from ..ir import parse_module, print_module, verify_module
from ..perf import STATS
from . import faults
from .diagnostics import CrashBundle, TransformError
from .faults import Budget, FaultPlan

#: Default wall-clock budget of one transaction (seconds).  Generous for
#: the simulated workloads; the point is bounding a wedged pass, not
#: policing normal variance.
DEFAULT_DEADLINE_S = 60.0


class _Snapshot:
    """A byte-exact checkpoint: IR text plus positionally-keyed metadata
    (the printer intentionally does not serialize metadata)."""

    __slots__ = ("text", "module_metadata", "function_metadata")

    def __init__(self, text, module_metadata, function_metadata):
        self.text = text
        self.module_metadata = module_metadata
        #: One (fn_metadata, [inst_metadata...]) pair per function, in
        #: module order; instruction entries follow block order.
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
        deadline_s: float | None = DEFAULT_DEADLINE_S,
        step_budget: int | None = None,
        fault_plan: "FaultPlan | str | None" = "env",
        strict: bool = False,
        checks: bool | None = None,
    ):
        self.noelle = noelle
        self.crash_dir = crash_dir
        self.deadline_s = deadline_s
        self.step_budget = step_budget
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
        #: When True, failures still roll back and bundle, then re-raise
        #: (fail-stop callers keep their diagnostics).
        self.strict = strict
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
        failure unless the manager is strict."""
        result = PassResult(name)
        budget = Budget(self.deadline_s)
        snapshot: _Snapshot | None = None
        phase = "snapshot"
        previous_cap = _interp.set_step_budget(self.step_budget)
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
            if self.strict:
                raise
        else:
            STATS.count("passmanager.ok")
        finally:
            _interp.set_step_budget(previous_cap)
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
        """Run a pass from :data:`PASS_BUILDERS` by name (transactional)."""
        canonical, body = build_pass(name, **options)
        return self.run(canonical, body)

    # -- snapshot / restore --------------------------------------------------------

    def _snapshot(self) -> _Snapshot:
        faults.checkpoint("snapshot")
        with STATS.timer("passmanager.snapshot"):
            module = self.module
            text = print_module(module)
            function_metadata = []
            for fn in module.functions.values():
                inst_md = []
                for block in fn.blocks:
                    for inst in block.instructions:
                        inst_md.append(dict(inst.metadata) if inst.metadata else None)
                function_metadata.append(
                    (dict(fn.metadata) if fn.metadata else None, inst_md)
                )
            return _Snapshot(
                text, copy.deepcopy(module.metadata), function_metadata
            )

    def _restore(self, snapshot: _Snapshot) -> None:
        """Swap the snapshot back into the *same* Module object, so every
        caller holding a reference sees the rolled-back program."""
        module = self.module
        fresh = parse_module(snapshot.text, module.name)
        module.functions = fresh.functions
        module.globals = fresh.globals
        module.structs = fresh.structs
        module.metadata = copy.deepcopy(snapshot.module_metadata)
        for fn in module.functions.values():
            fn.parent = module
        for fn, (fn_md, inst_md) in zip(
            module.functions.values(), snapshot.function_metadata
        ):
            fn.metadata = dict(fn_md) if fn_md else {}
            index = 0
            for block in fn.blocks:
                for inst in block.instructions:
                    md = inst_md[index]
                    index += 1
                    inst.metadata = dict(md) if md else {}
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
# Builders are factories: options in, a ``body(noelle)`` callable out.
# Imports happen inside each builder so loading the pass manager never
# drags in every transform (and never cycles through repro.core).

def _doall(num_cores=8, minimum_hotness=0.0, only_loop_id=None, max_rounds=10):
    from ..xforms.doall import DOALL

    return lambda noelle: DOALL(noelle, num_cores).run(
        minimum_hotness, max_rounds=max_rounds, only_loop_id=only_loop_id
    )


def _dswp(num_stages=4, minimum_hotness=0.0, only_loop_id=None, max_rounds=10):
    from ..xforms.dswp import DSWP

    return lambda noelle: DSWP(noelle, num_stages).run(
        minimum_hotness, max_rounds=max_rounds, only_loop_id=only_loop_id
    )


def _helix(num_cores=8, minimum_hotness=0.0, only_loop_id=None, max_rounds=10):
    from ..xforms.helix import HELIX

    return lambda noelle: HELIX(noelle, num_cores).run(
        minimum_hotness, max_rounds=max_rounds, only_loop_id=only_loop_id
    )


def _licm():
    from ..xforms.licm import LICM

    return lambda noelle: LICM(noelle).run()


def _perspective(default_cores=12, max_rounds=5):
    from ..xforms.perspective import Perspective

    return lambda noelle: Perspective(noelle, default_cores).run(
        max_rounds=max_rounds
    )


def _dead(roots=None):
    from ..xforms.dead import DeadFunctionEliminator

    return lambda noelle: DeadFunctionEliminator(noelle, roots).run()


def _coos(budget_cycles=400):
    from ..xforms.coos import CompilerTiming

    return lambda noelle: CompilerTiming(noelle, budget_cycles).run()


def _prvjeeves(hotness_threshold=0.01):
    from ..xforms.prvjeeves import PRVJeeves

    return lambda noelle: PRVJeeves(noelle, hotness_threshold).run()


def _timesqueezer():
    from ..xforms.timesqueezer import TimeSqueezer

    return lambda noelle: TimeSqueezer(noelle).run()


def _carat():
    from ..xforms.carat import CARAT

    return lambda noelle: CARAT(noelle).run()


def _rm_lc_dependences():
    from ..tools.rm_lc_dependences import remove_loop_carried_dependences

    return remove_loop_carried_dependences


PASS_BUILDERS = {
    "doall": _doall,
    "dswp": _dswp,
    "helix": _helix,
    "licm": _licm,
    "perspective": _perspective,
    "dead": _dead,
    "coos": _coos,
    "prvjeeves": _prvjeeves,
    "timesqueezer": _timesqueezer,
    "carat": _carat,
    "rm-lc-dependences": _rm_lc_dependences,
}

#: Short names the harness and CLI historically use.
PASS_ALIASES = {
    "prvj": "prvjeeves",
    "time": "timesqueezer",
    "time-squeezer": "timesqueezer",
    "rm_lc_dependences": "rm-lc-dependences",
}


def build_pass(name: str, **options):
    """Resolve ``name`` to ``(canonical_name, body)``; raises ValueError
    for unknown passes *before* any transaction starts."""
    canonical = PASS_ALIASES.get(name, name)
    builder = PASS_BUILDERS.get(canonical)
    if builder is None:
        raise ValueError(f"unknown tool {name!r}")
    return canonical, builder(**options)
