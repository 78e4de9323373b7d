"""Deterministic fault injection and cooperative budgets.

The transactional :class:`~repro.robust.passmanager.PassManager` needs two
cooperative interruption mechanisms, both of which live here because they
share the same instrumented chokepoints:

* **Fault injection** — a seeded :class:`FaultPlan` arms exactly one
  deterministic failure ("raise at the Nth alias query / Nth verify /
  Nth snapshot").  Tests use plans to prove that after *any* injected
  failure the rolled-back module is byte-identical to its pre-pass
  snapshot.  The ``NOELLE_FAULTS`` environment variable arms a plan for
  every pass manager that was not given one explicitly, so the whole
  test suite can run under a fault-injection seed matrix in CI.
* **Wall-clock budgets** — a :class:`Budget` turns the same chokepoints
  into cooperative preemption points, so a pass stuck in analysis work
  is interrupted at its next alias query instead of hanging the service.

Plans and budgets are *armed* only while a transaction runs (see
:func:`armed`); outside a transaction every chokepoint is a cheap no-op,
which keeps ``NOELLE_FAULTS`` from perturbing code that never routes
through the pass manager (the Figure 3/4 experiments, direct xform
tests; Figure 5 parallelizes through it like every other driver).

This module must stay dependency-free (stdlib only): the IR verifier and
the alias analyses import it, so importing anything from ``repro`` here
would create a cycle.
"""

from __future__ import annotations

import contextlib
import os
import random
import time

#: Service-layer chokepoints, visited by the ``repro-noelle serve``
#: worker while it executes one request (see ``repro.serve.session``):
#:
#: * ``serve_exec``  — the fault surfaces as a structured request error;
#: * ``serve_kill``  — the worker process exits abruptly (``os._exit``),
#:   simulating an OOM kill / SIGKILL mid-request, so the supervisor's
#:   restart path is what the seed exercises;
#: * ``serve_flaky`` — the fault surfaces as a *transient* error the
#:   daemon's bounded-retry policy is allowed to retry.
SERVE_SITES = ("serve_exec", "serve_kill", "serve_flaky")

#: The instrumented chokepoints, in rough order of how often they fire.
#: (``FaultPlan.from_seed`` intentionally draws from its own hard-coded
#: tuple, so extending SITES never remaps existing CI seeds.)
SITES = ("alias_query", "verify", "snapshot") + SERVE_SITES

#: Environment variable holding a fault spec (see :meth:`FaultPlan.from_spec`).
ENV_VAR = "NOELLE_FAULTS"


class InjectedFault(RuntimeError):
    """A failure raised on purpose by an armed :class:`FaultPlan`."""

    def __init__(self, site: str, ordinal: int, plan: "FaultPlan"):
        super().__init__(
            f"injected fault at {site} #{ordinal} (plan {plan.describe()})"
        )
        self.site = site
        self.ordinal = ordinal
        self.plan = plan


class PassDeadlineExceeded(RuntimeError):
    """The wall-clock budget of the running transaction ran out."""


class Budget:
    """Cooperative wall-clock budget for one transaction."""

    def __init__(self, deadline_s: float | None, clock=time.monotonic):
        #: Seconds the transaction may run; None disables the deadline.
        self.deadline_s = deadline_s
        self._clock = clock
        self._started = clock()

    def elapsed(self) -> float:
        return self._clock() - self._started

    def expired(self) -> bool:
        return self.deadline_s is not None and self.elapsed() > self.deadline_s

    def check(self) -> None:
        if self.expired():
            raise PassDeadlineExceeded(
                f"pass exceeded its {self.deadline_s:g}s wall-clock budget "
                f"({self.elapsed():.3f}s elapsed)"
            )


class FaultPlan:
    """One deterministic injected failure: raise at the Nth visit of a site.

    A plan fires at most once per process (``fired``), so a seeded plan
    degrades exactly one transaction of whatever pipeline consumes it —
    the graceful-degradation property the robustness tests assert.
    """

    def __init__(self, site: str, trigger: int, seed: int | None = None):
        if site not in SITES:
            raise ValueError(
                f"unknown fault site {site!r}; expected one of {SITES}"
            )
        if trigger < 1:
            raise ValueError(f"fault trigger must be >= 1, got {trigger}")
        self.site = site
        #: Fire at the trigger-th visit of ``site`` (1-based).
        self.trigger = trigger
        self.seed = seed
        self.counts: dict[str, int] = {s: 0 for s in SITES}
        self.fired = False
        self.fired_at: tuple[str, int] | None = None

    @classmethod
    def from_seed(cls, seed: int) -> "FaultPlan":
        """Derive a (site, trigger) pair deterministically from ``seed``."""
        rng = random.Random(seed)
        site = rng.choice(
            ("alias_query", "alias_query", "alias_query", "verify", "snapshot")
        )
        if site == "alias_query":
            trigger = rng.randint(1, 64)
        else:
            trigger = rng.randint(1, 2)
        return cls(site, trigger, seed=seed)

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse ``"<site>:<N>"`` or ``"seed:<N>"`` (the env-var syntax)."""
        text = spec.strip()
        kind, sep, count = text.partition(":")
        if not sep or not count.strip().lstrip("-").isdigit():
            raise ValueError(
                f"bad fault spec {spec!r}; expected 'seed:<N>' or "
                f"'<site>:<N>' with site in {SITES}"
            )
        number = int(count)
        if kind == "seed":
            return cls.from_seed(number)
        return cls(kind, number)

    @classmethod
    def from_env(cls, environ=None) -> "FaultPlan | None":
        """A fresh plan from ``NOELLE_FAULTS``, or None when unset."""
        spec = (environ if environ is not None else os.environ).get(ENV_VAR, "")
        spec = spec.strip()
        return cls.from_spec(spec) if spec else None

    def describe(self) -> str:
        base = f"{self.site}:{self.trigger}"
        if self.seed is not None:
            return f"seed:{self.seed} ({base})"
        return base

    def note(self, site: str) -> None:
        """Count a visit of ``site``; raise when the trigger is reached."""
        self.counts[site] = self.counts.get(site, 0) + 1
        if (
            not self.fired
            and site == self.site
            and self.counts[site] == self.trigger
        ):
            self.fired = True
            self.fired_at = (site, self.counts[site])
            raise InjectedFault(site, self.counts[site], self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self.fired else "armed"
        return f"<FaultPlan {self.describe()} [{state}]>"


def enabled_in_env(environ=None) -> bool:
    """True when ``NOELLE_FAULTS`` is set (tests relax effect assertions)."""
    spec = (environ if environ is not None else os.environ).get(ENV_VAR, "")
    return bool(spec.strip())


# -- process-wide arming -------------------------------------------------------

_active_plan: FaultPlan | None = None
_active_budget: Budget | None = None
_suspend_depth = 0


@contextlib.contextmanager
def armed(plan: FaultPlan | None, budget: Budget | None = None):
    """Arm ``plan``/``budget`` for the duration of one transaction."""
    global _active_plan, _active_budget
    previous = (_active_plan, _active_budget)
    _active_plan, _active_budget = plan, budget
    try:
        yield
    finally:
        _active_plan, _active_budget = previous


@contextlib.contextmanager
def suspended():
    """Disarm everything temporarily (rollback and bundle writing must
    not be re-interrupted by the very fault being handled)."""
    global _suspend_depth
    _suspend_depth += 1
    try:
        yield
    finally:
        _suspend_depth -= 1


def checkpoint(site: str) -> None:
    """Hook called by instrumented sites; a cheap no-op unless armed."""
    if _suspend_depth:
        return
    budget = _active_budget
    if budget is not None:
        budget.check()
    plan = _active_plan
    if plan is not None:
        plan.note(site)


def active_plan() -> FaultPlan | None:
    return _active_plan
