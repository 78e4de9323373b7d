"""The remaining noelle-* tools, the verbs every driver is a shell over,
and the pipeline driver (Figure 1).

* ``noelle-prof-coverage``  -> :func:`prof_coverage`
* ``noelle-meta-prof-embed`` -> :func:`meta_prof_embed`
* ``noelle-meta-clean``      -> :func:`meta_clean`
* ``noelle-arch``            -> :func:`measure_architecture`
* ``noelle-load``            -> :func:`load`
* ``noelle-linker``          -> :func:`link`
* ``noelle-bin``             -> :class:`Binary` / :func:`make_binary`

The verbs, each written once: :func:`load_program` (path or workload
name -> module), :func:`execute` (run on the simulated machine; traps
and budget kills in-band), :func:`parallelize` (training run ->
``rm-lc-dependences`` -> DOALL/HELIX/DSWP, as transactions) and
:func:`outputs_equivalent`.  The CLI, the serve worker, the test
harness, the fuzz oracles and Figure 5 call them and keep only what is
theirs: argument parsing and exit codes, JSON and session state,
outcome records.

:func:`helix_pipeline` strings the tools together exactly as the paper's
Figure 1 does for the HELIX custom tool.
"""

from __future__ import annotations

import os

from ..core.architecture import ArchitectureDescription
from ..core.metadata import clean_noelle_metadata
from ..core.noelle import Noelle
from ..core.profiler import ProfileData, Profiler, embed_profile
from ..interp.interp import ExecutionResult, InterpError
from ..ir import Module, is_binary_ir, verify_module
from ..ir.linker import link_modules
from ..perf import STATS
from ..robust.diagnostics import EntryNotFoundError
from ..robust.passmanager import PassManager, build_pass
from ..runtime.machine import ParallelMachine
from ..runtime.schedule import UnpricedRegion
from .meta_pdg_embed import embed_pdg, load_embedded_pdg
from .whole_ir import LINK_OPTIONS_KEY, WHOLE_PROGRAM, link_options_of

#: The parallelizing techniques :func:`parallelize` applies.
TECHNIQUES = ("doall", "helix", "dswp")


def prof_coverage(
    module: Module, training_args: list[object] | None = None
) -> ProfileData:
    """``noelle-prof-coverage``: run the instrumented program."""
    return Profiler(module).profile(args=training_args)


def meta_prof_embed(module: Module, profile: ProfileData) -> None:
    """``noelle-meta-prof-embed``: persist counts into the IR."""
    embed_profile(module, profile)


def meta_clean(module: Module) -> int:
    """``noelle-meta-clean``: strip all noelle.* metadata."""
    return clean_noelle_metadata(module)


def measure_architecture(
    num_cores: int = 12, smt: int = 2, numa: int = 1
) -> ArchitectureDescription:
    """``noelle-arch``: probe the (simulated) machine.

    On real hardware the tool runs ping-pong kernels between core pairs
    (via hwloc); here the machine *is* the model, so probing asks the
    model and records the answer per pair — keeping the description
    byte-for-byte consistent with what the runtime will charge.
    """
    arch = ArchitectureDescription(num_cores, smt, numa)
    for src in range(arch.num_physical_cores):
        for dst in range(src + 1, arch.num_physical_cores):
            arch.set_latency(src, dst, arch.latency(src, dst))
            arch.set_bandwidth(src, dst, arch.bandwidth(src, dst))
    return arch


def load(
    module: Module,
    architecture: ArchitectureDescription | None = None,
    profile: ProfileData | None = None,
) -> Noelle:
    """``noelle-load``: bring the layer up *without computing* anything.

    Abstractions materialize on first use.  The PDG's shards are
    adopted rather than built when someone already paid for them, into
    the facade's own graph and in this order: first from the module's
    own metadata (``noelle-meta-pdg-embed``) if it is still current,
    then from the artifact cache, if one is configured, for the
    functions the embedding did not cover.  The cache also binds the
    facade, so invalidation mirrors onto disk, and hydrates the
    module's engine plans.  Every driver (CLI verbs, serve sessions,
    the test harness, the Figure 1 pipeline) takes its facade from here.
    """
    # Imported here: repro.tools is imported by every pass pipeline,
    # most of which never load; the store's imports cost ~4 MB.
    from .. import cache

    noelle = Noelle(module, architecture, profile)
    load_embedded_pdg(module, noelle.pdg())
    cache.attach(noelle)
    return noelle


def load_program(path: str) -> Module:
    """The one program loader: a ``.mc`` MiniC file (the module
    ``noelle-whole-IR`` makes of it), an IR file — textual or binary,
    told apart by content — or, when no such file exists, the name of
    a registered workload.  Files load through the artifact cache."""
    if not os.path.exists(path):
        from ..workloads import registry

        try:
            return registry.get(path).compile()
        except KeyError:
            raise FileNotFoundError(
                f"{path!r} is neither a file nor a registered workload"
            ) from None
    from .. import cache

    if path.endswith(".mc"):
        # What ``whole_ir_from_files([path])`` builds: one source file is
        # the whole program, with no link options.
        with open(path) as handle:
            module = cache.cached_compile(handle.read(), WHOLE_PROGRAM)
        module.metadata[LINK_OPTIONS_KEY] = []
        return module
    with open(path, "rb") as handle:
        data = handle.read()
    if is_binary_ir(data):
        return cache.load_ir_binary(data, path)
    return cache.load_ir_text(data.decode("utf-8"), path)


def link(modules: list[Module], name: str = "linked") -> Module:
    """``noelle-linker``: combine modules, preserving noelle metadata."""
    return link_modules(modules, name)


def execute(
    module: Module,
    entry: str = "main",
    args: list[object] | None = None,
    num_cores: int | None = None,
    architecture: ArchitectureDescription | None = None,
    engine: str | None = None,
    step_limit: int | None = None,
) -> ExecutionResult:
    """Run ``entry`` on the simulated machine, compiled unless ``engine``
    is "reference" (serve's degraded ``run``, and the tests).

    :class:`EntryNotFoundError` when ``entry`` is not a defined function.
    A trap, any other runtime error of the program (a division by zero,
    an executed ``unreachable``) or an exhausted ``step_limit`` (None:
    the machine's own) is not an exception: the partial result comes
    back with ``trapped`` and ``trap_kind`` ("MemoryTrap" / "StackOverflow"
    / "InterpError" / "StepLimitExceeded" / "UnpricedRegion") set.
    """
    fn = module.functions.get(entry)
    if fn is None or fn.is_declaration():
        raise EntryNotFoundError(
            entry, sorted(f.name for f in module.defined_functions())
        )
    budget = {} if step_limit is None else {"step_limit": step_limit}
    machine = ParallelMachine(
        module, architecture, num_cores, engine=engine, **budget
    )
    try:
        result = machine.run(entry, args)
    except (InterpError, UnpricedRegion) as error:
        result = machine.result
        result.trapped = str(error)
        result.trap_kind = type(error).__name__
    return result


def parallelize(
    noelle: Noelle,
    technique: str,
    num_cores: int = 8,
    num_stages: int = 4,
    minimum_hotness: float = 0.0,
    only_loop_id: int | None = None,
    crash_dir: str | None = None,
    step_limit: int | None = None,
) -> tuple[PassManager, int]:
    """Apply one of :data:`TECHNIQUES`; the one place that knows the recipe.

    The technique is built first, so a width below 1 raises
    :class:`ValueError` with the module untouched.  A training run comes
    next (bounded by ``step_limit``; its :class:`StepLimitExceeded`
    propagates — nothing to roll back yet), ``rm-lc-dependences``
    precedes the technique, DSWP scales by ``num_stages`` and the others
    by ``num_cores``, and both transforms are :class:`PassManager`
    transactions.  Returns the manager (rolled-back results, crash
    bundles) and the number of loops parallelized, 0 when the technique
    rolled back.
    """
    if technique not in TECHNIQUES:
        raise ValueError(f"unknown technique {technique!r}")
    scale = (
        {"num_stages": num_stages}
        if technique == "dswp"
        else {"num_cores": num_cores}
    )
    _, body = build_pass(
        technique,
        minimum_hotness=minimum_hotness,
        only_loop_id=only_loop_id,
        **scale,
    )
    budget = {} if step_limit is None else {"step_limit": step_limit}
    noelle.attach_profile(Profiler(noelle.module).profile(**budget))
    manager = PassManager(noelle, crash_dir=crash_dir)
    manager.run_registered("rm-lc-dependences")
    result = manager.run(technique, body)
    return manager, result.value if result.ok else 0


def outputs_equivalent(a: list, b: list) -> bool:
    """Whether two runs printed the same values: exact for integers,
    relative 1e-6 for floats (parallel reductions re-associate
    floating-point additions, as the paper's runtimes do)."""
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if isinstance(x, float) or isinstance(y, float):
            scale = max(abs(float(x)), abs(float(y)), 1.0)
            if abs(float(x) - float(y)) > 1e-6 * scale:
                return False
        elif x != y:
            return False
    return True


class Binary:
    """``noelle-bin``'s output: an executable program image.

    Runs on the simulated machine, compiled like every product run; the
    link options embedded by ``noelle-whole-IR`` select the runtime
    pieces (parallel dispatch).
    """

    def __init__(self, module: Module, num_cores: int | None = None,
                 architecture: ArchitectureDescription | None = None):
        verify_module(module)
        self.module = module
        self.num_cores = num_cores
        self.architecture = architecture
        self.link_options = link_options_of(module)

    def run(self, args: list[object] | None = None,
            entry: str = "main") -> ExecutionResult:
        return execute(
            self.module, entry, args, self.num_cores, self.architecture
        )


def make_binary(
    module: Module,
    num_cores: int | None = None,
    architecture: ArchitectureDescription | None = None,
) -> Binary:
    """``noelle-bin``: finalize a module into a runnable image."""
    return Binary(module, num_cores, architecture)


def helix_pipeline(
    sources: list[str],
    training_args: list[object] | None = None,
    num_cores: int = 12,
    minimum_hotness: float = 0.001,
    pass_manager: PassManager | None = None,
) -> Module:
    """The Figure 1 compilation flow, end to end.

    whole-IR -> prof-coverage -> meta-prof-embed -> rm-lc-dependences ->
    meta-clean -> prof-coverage -> meta-prof-embed -> meta-pdg-embed ->
    arch -> load -> HELIX transformation -> (linker/bin are the caller's
    final step via :func:`make_binary`).

    Both transforms run as :class:`PassManager` transactions: a pass that
    crashes, times out, or fails verification is rolled back to its
    byte-identical pre-pass snapshot (with a crash bundle) and compilation
    continues with the surviving module — one bad optimization degrades,
    it does not abort.  Pass an explicit ``pass_manager`` to configure the
    transactions (crash directory, fault plan, checker gate) or to
    inspect results and bundles afterwards.  HELIX skips the loops
    colder than ``minimum_hotness``.
    """
    from .whole_ir import whole_ir_from_sources

    with STATS.timer("pipeline.helix"):
        module = whole_ir_from_sources(sources)
        with STATS.timer("pipeline.profile"):
            profile = prof_coverage(module, training_args)
        meta_prof_embed(module, profile)
        noelle = Noelle(module, profile=profile)
        manager = pass_manager
        if manager is None:
            manager = PassManager(noelle)
        else:
            manager.rebind(noelle)
        manager.run_registered("rm-lc-dependences")
        meta_clean(module)
        with STATS.timer("pipeline.profile"):
            profile = prof_coverage(module, training_args)
        meta_prof_embed(module, profile)
        with STATS.timer("pipeline.pdg_embed"):
            embed_pdg(module)
        architecture = measure_architecture(num_cores)
        manager.rebind(load(module, architecture, profile))
        with STATS.timer("pipeline.transform"):
            manager.run_registered(
                "helix", num_cores=num_cores, minimum_hotness=minimum_hotness
            )
        verify_module(module)
    return module
