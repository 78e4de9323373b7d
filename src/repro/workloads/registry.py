"""Workload registry.

Each workload is a MiniC program shaped after a benchmark from the
paper's suites (PARSEC 3.0, MiBench, SPEC CPU2017): same dominant code
patterns (loop shapes, dependence structure, memory behaviour), scaled to
interpreter-friendly sizes.  The registry is what every experiment
iterates over.
"""

from __future__ import annotations

from ..ir import Module


class Workload:
    """One benchmark program."""

    def __init__(
        self,
        name: str,
        suite: str,
        source: str,
        description: str,
        parallel_friendly: bool,
        step_limit: int = 50_000_000,
    ):
        self.name = name
        self.suite = suite  # "parsec" | "mibench" | "spec"
        self.source = source
        self.description = description
        #: Whether the paper's Figure 5 shows meaningful speedups for the
        #: pattern this program represents.
        self.parallel_friendly = parallel_friendly
        self.step_limit = step_limit

    def compile(self) -> Module:
        """A fresh module (workloads are mutated by transformations).

        With ``NOELLE_CACHE_DIR`` set, a warm hit decodes the cached
        binary module instead of re-running the frontend.
        """
        from ..cache import cached_compile

        return cached_compile(self.source, self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Workload {self.suite}/{self.name}>"


_REGISTRY: dict[str, Workload] = {}
_LOADED = False


def register(workload: Workload) -> Workload:
    _ensure_loaded()
    if workload.name in _REGISTRY:
        raise ValueError(f"duplicate workload {workload.name}")
    _REGISTRY[workload.name] = workload
    return workload


def get(name: str) -> Workload:
    _ensure_loaded()
    return _REGISTRY[name]


def all_workloads() -> list[Workload]:
    _ensure_loaded()
    return list(_REGISTRY.values())


def suite(name: str) -> list[Workload]:
    _ensure_loaded()
    return [w for w in _REGISTRY.values() if w.suite == name]


def _ensure_loaded() -> None:
    global _LOADED
    if not _LOADED:
        _LOADED = True
        # Self-registering suites.
        from . import mibench, parsec, spec  # noqa: F401
