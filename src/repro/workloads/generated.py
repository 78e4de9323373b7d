"""Generated workload families (the fuzzer's corpus as benchmarks).

Each family is a dependence shape of :mod:`repro.fuzz.gen`; its
members are seeded generated programs whose loops all share that
shape.  Registering a family makes Figure 3/5-style sweeps (loop
counts, speedup curves) run over hundreds of programs instead of the
21 hand-shaped suite workloads.

Families are **opt-in**: nothing registers at import time, so the
default registry (and everything parametrized over it) is unchanged.
Sweeps and tests call :func:`register_generated` /
:func:`unregister_generated` explicitly.
"""

from __future__ import annotations

from ..fuzz.gen import SHAPES, generate_program
from .registry import _REGISTRY, Workload, _ensure_loaded, register

#: One family per generator dependence shape.
FAMILIES = SHAPES

#: Shapes whose loops the paper's Figure 5 parallelizes profitably.
_PARALLEL_FRIENDLY = {"independent", "reduction"}

_FAMILY_SEED_STRIDE = 7_919


def generated_workloads(
    families=FAMILIES, per_family: int = 8, seed: int = 1
) -> list[Workload]:
    """Build (without registering) the generated families."""
    workloads = []
    for family_index, family in enumerate(families):
        if family not in SHAPES:
            raise ValueError(f"unknown family {family!r}")
        for index in range(per_family):
            program_seed = (
                seed * _FAMILY_SEED_STRIDE + family_index * per_family + index
            )
            name = f"gen_{family}_{seed}_{index}"
            program = generate_program(program_seed, family=family, name=name)
            workloads.append(
                Workload(
                    name=name,
                    suite="generated",
                    source=program.source,
                    description=(
                        f"generated {family} family, campaign seed {seed}, "
                        f"program seed {program_seed}"
                    ),
                    parallel_friendly=family in _PARALLEL_FRIENDLY,
                    step_limit=2_000_000,
                )
            )
    return workloads


def register_generated(
    families=FAMILIES, per_family: int = 8, seed: int = 1
) -> list[Workload]:
    """Register generated families; idempotent per (family, seed, index)."""
    registered = []
    for workload in generated_workloads(families, per_family, seed):
        _ensure_loaded()
        if workload.name in _REGISTRY:
            registered.append(_REGISTRY[workload.name])
            continue
        registered.append(register(workload))
    return registered


def unregister_generated() -> int:
    """Drop every suite="generated" entry; returns how many were removed."""
    _ensure_loaded()
    names = [
        name for name, w in _REGISTRY.items() if w.suite == "generated"
    ]
    for name in names:
        del _REGISTRY[name]
    return len(names)


def as_micro_tests(workloads: list[Workload]):
    """Adapt workloads for ``repro.testing.harness.run_corpus(tests=...)``."""
    from ..testing.corpus import MicroTest

    return [
        MicroTest(w.name, w.source, {"generated", w.suite}) for w in workloads
    ]
