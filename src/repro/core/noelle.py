"""The NOELLE facade: demand-driven access to every abstraction.

``Noelle`` is what a custom tool receives from ``noelle-load``: one object
giving access to the PDG, the call graph, loops, the data-flow engine, the
scheduler, environments, tasks, profiles, and the architecture description.
Every abstraction is computed lazily and cached — users "only pay for the
abstractions they need" (Section 2.2) — and the expensive PDG need not be
computed at all: ``noelle-load`` (:func:`repro.tools.pipeline.load`, where
every driver gets its facade) hands the facade a PDG whose shards were
adopted from ``noelle-meta-pdg-embed`` metadata or from the artifact cache.
Such a PDG holds ``alias_analysis`` itself, uncalled, so it is an ordinary
PDG: :meth:`Noelle.invalidate` treats it like one it computed.
"""

from __future__ import annotations

from ..analysis.aa import AliasAnalysis, BasicAliasAnalysis
from ..analysis.dominators import DominatorTree, PostDominatorTree
from ..analysis.loopinfo import LoopInfo, NaturalLoop
from ..analysis.pointsto import AndersenAliasAnalysis, PointsToAnalysis
from ..interp.engine import invalidate_module
from ..ir.module import Function, Module
from ..perf import STATS
from .architecture import ArchitectureDescription
from .callgraph import CallGraph
from .dataflow import DataFlowEngine
from .environment import EnvironmentBuilder
from .forest import Forest
from .loop import Loop
from .loopbuilder import LoopBuilder
from .metadata import IDAssigner
from .pdg import PDG
from .profiler import ProfileData, Profiler
from .scheduler import BasicBlockScheduler, LoopScheduler, Scheduler


class _FunctionLoops:
    """One function's loop info and the canonical loops derived from it.

    One record so that whoever drops a function's loop info drops its
    :class:`Loop` objects with it; the loop info also pins the function,
    so the ``id(fn)`` key cannot be recycled while the record lives.
    """

    __slots__ = ("info", "loops")

    def __init__(self, fn: Function):
        self.info = LoopInfo(fn)
        #: header block id -> Loop, outermost first; None until asked for.
        self.loops: dict[int, Loop] | None = None


class Noelle:
    """Demand-driven entry point to the NOELLE abstraction layer."""

    def __init__(
        self,
        module: Module,
        architecture: ArchitectureDescription | None = None,
        profile: ProfileData | None = None,
        minimum_hotness: float = 0.0,
    ):
        self.module = module
        self._architecture = architecture
        self._profile = profile
        #: Loops colder than this are not offered to transformation tools.
        self.minimum_hotness = minimum_hotness
        self._aa: AliasAnalysis | None = None
        self._pdg: PDG | None = None
        self._callgraph: CallGraph | None = None
        self._pointsto: PointsToAnalysis | None = None
        self._function_loops: dict[int, _FunctionLoops] = {}
        #: The numbered, hotness-ordered view ``loops()`` assembles from
        #: the per-function records.
        self._loops: list[Loop] | None = None
        self._ids: IDAssigner | None = None
        self._dfe: DataFlowEngine | None = None
        self._env_builder: EnvironmentBuilder | None = None
        #: Set by ``repro.cache.attach``: links this facade to the
        #: on-disk artifact entry its module was hydrated from.
        self._cache_binding = None

    # -- analyses ----------------------------------------------------------------------
    def alias_analysis(self) -> AliasAnalysis:
        """The strong AA stack powering the PDG (the SCAF/SVF stand-in)."""
        if self._aa is None:
            self._aa = AndersenAliasAnalysis(self.module)
        return self._aa

    def points_to(self) -> PointsToAnalysis:
        if self._pointsto is None:
            aa = self.alias_analysis()
            if isinstance(aa, AndersenAliasAnalysis):
                self._pointsto = aa.pointsto
            else:
                self._pointsto = PointsToAnalysis(self.module)
        return self._pointsto

    def pdg(self) -> PDG:
        """The program dependence graph (computed on first request)."""
        if self._pdg is None:
            self._pdg = PDG(self.module, self.alias_analysis())
        return self._pdg

    def adopt_pdg(self, pdg: PDG) -> None:
        """Install an externally produced PDG (e.g. one whose shards were
        adopted from ``noelle-meta-pdg-embed`` metadata) as the cached one.

        Also drops the caches *derived from* the previous PDG — every
        function's :class:`Loop` objects capture the PDG they were built
        against — so stale dependence facts cannot leak through a swap
        (the same trap the ``invalidate()`` fix closed for ``_dfe`` and
        ``_env_builder``).  Loop info is CFG-only and stays.
        """
        self._pdg = pdg
        for record in self._function_loops.values():
            record.loops = None
        self._loops = None
        # An adopted PDG usually accompanies module metadata surgery;
        # compiled code must not outlive whatever produced it.
        invalidate_module(self.module)

    def call_graph(self) -> CallGraph:
        if self._callgraph is None:
            self._callgraph = CallGraph(self.module, self.points_to())
        return self._callgraph

    def dominators(self, fn: Function) -> DominatorTree:
        return DominatorTree(fn)

    def post_dominators(self, fn: Function) -> PostDominatorTree:
        return PostDominatorTree(fn)

    # -- loops --------------------------------------------------------------------------
    def _loop_record(self, fn: Function) -> _FunctionLoops:
        record = self._function_loops.get(id(fn))
        if record is None:
            record = self._function_loops[id(fn)] = _FunctionLoops(fn)
        return record

    def loop_info(self, fn: Function) -> LoopInfo:
        return self._loop_record(fn).info

    def _loops_of(self, fn: Function) -> dict[int, Loop]:
        """``fn``'s canonical loops by header block id, outermost first.

        Built once per function version: they share the lifetime of the
        function's PDG shard, so every tool (and every call of
        ``loops()`` / ``loop_forest()`` / ``loop_of()``) sees the same
        :class:`Loop`, with whatever LDG / SCCDAG / INV / IV an earlier
        one already paid for.
        """
        record = self._loop_record(fn)
        if record.loops is None:
            pdg = self.pdg()
            record.loops = {
                id(natural.header): Loop(natural, pdg)
                for natural in record.info.loops()
            }
        else:
            STATS.count("loop.cache_hits")
        return record.loops

    def loops(self) -> list[Loop]:
        """Every loop of the program as a canonical :class:`Loop` (hot-first).

        When a profile is attached, loops colder than ``minimum_hotness``
        are filtered out — the paper's "minimum hotness required to
        consider a loop".  ``loop_id`` numbers the loops in module order,
        before that filter, every time the list is assembled.
        """
        if self._loops is None:
            result: list[Loop] = []
            for fn in self.module.defined_functions():
                for loop in self._loops_of(fn).values():
                    loop.structure.loop_id = len(result)
                    result.append(loop)
            if self._profile is not None:
                result = [
                    loop
                    for loop in result
                    if self._profile.loop_hotness(loop.natural_loop)
                    >= self.minimum_hotness
                ]
                result.sort(
                    key=lambda l: -self._profile.loop_hotness(l.natural_loop)
                )
            self._loops = result
        return self._loops

    def loop_of(self, natural: NaturalLoop) -> Loop:
        """The canonical loop headed by ``natural``'s header block (any
        ``LoopInfo`` of the current function body names the same loop)."""
        header = natural.header
        fn = header.parent  # None once a transformation removed the block
        loop = self._loops_of(fn).get(id(header)) if fn is not None else None
        if loop is None:
            raise ValueError(
                f"{natural!r} heads no loop of the module as it is now: "
                "it was computed before a transformation"
            )
        return loop

    def loop_forest(self, fn: Function) -> Forest[Loop]:
        """The loop-nesting forest of ``fn`` over canonical loops (FR)."""
        forest: Forest[Loop] = Forest()
        loops = self._loops_of(fn)
        for loop in loops.values():  # outermost first
            parent = loop.natural_loop.parent
            forest.add(
                loop, loops[id(parent.header)] if parent is not None else None
            )
        return forest

    def loop_builder(self, fn: Function) -> LoopBuilder:
        return LoopBuilder(fn)

    # -- engines & builders -----------------------------------------------------------
    def dataflow_engine(self) -> DataFlowEngine:
        if self._dfe is None:
            self._dfe = DataFlowEngine()
        return self._dfe

    def environment_builder(self) -> EnvironmentBuilder:
        if self._env_builder is None:
            self._env_builder = EnvironmentBuilder(self.module)
        return self._env_builder

    def scheduler(self, fn: Function) -> Scheduler:
        return Scheduler(fn, self.pdg())

    def basic_block_scheduler(self, fn: Function) -> BasicBlockScheduler:
        return BasicBlockScheduler(fn, self.pdg())

    def loop_scheduler(self, fn: Function) -> LoopScheduler:
        return LoopScheduler(fn, self.pdg())

    # -- checkers -----------------------------------------------------------------------
    def run_checks(self, names: list[str] | None = None):
        """Run the checker suite over the module, reusing this facade's
        cached abstractions; returns the list of diagnostics."""
        from ..checks.base import run_checkers

        return run_checkers(self.module, self, names=names)

    # -- metadata, profiles, architecture ------------------------------------------------
    def ids(self) -> IDAssigner:
        if self._ids is None:
            self._ids = IDAssigner(self.module)
        return self._ids

    def profile(self) -> ProfileData | None:
        return self._profile

    def attach_profile(self, profile: ProfileData) -> None:
        self._profile = profile
        self._loops = None  # hotness ordering changed; the loops stay

    def run_profiler(self, args: list[object] | None = None) -> ProfileData:
        profile = Profiler(self.module).profile(args=args)
        self.attach_profile(profile)
        return profile

    def architecture(self) -> ArchitectureDescription:
        if self._architecture is None:
            self._architecture = ArchitectureDescription.haswell_like()
        return self._architecture

    # -- cache management ---------------------------------------------------------------
    def bind_cache(self, binding) -> None:
        """Attach an artifact-cache binding (see ``repro.cache``).

        Once bound, per-function invalidation also evicts that
        function's on-disk artifacts, and a whole-module invalidation
        severs the binding — a transformed module no longer matches the
        content key its artifacts were published under.
        """
        self._cache_binding = binding

    def invalidate(self, fn: Function | None = None) -> None:
        """Drop cached analyses after the module was transformed.

        With ``fn`` given (the common case for the function-at-a-time
        transforms: LICM, the parallelization outliners, Perspective),
        only the state derived from that function's body is dropped,
        whether the PDG was computed here, adopted from metadata or
        hydrated from the cache: its PDG shard, its loop info with its
        :class:`Loop` objects, and the module-level aggregates built on
        top of them (the assembled loop list, instruction IDs, the call
        graph — outlining adds functions and calls).  Every other
        function keeps its loops, LDGs and SCCDAGs included.  The
        whole-module memory analyses stay warm: Andersen points-to is flow-insensitive, so an
        in-place rewrite of one function can only make its facts
        conservative, never wrong — new values have no points-to
        information and fall back to may-alias, and stale mod/ref
        summaries remain supersets of the rewritten callee's effects.

        With no ``fn`` (the conservative escape hatch, and the only
        option after interprocedural rewrites that change what memory
        *other* functions' code touches), everything is dropped.
        """
        if fn is not None:
            if self._pdg is not None:
                self._pdg.invalidate_function(fn)
            self._function_loops.pop(id(fn), None)
            self._loops = None
            self._ids = None
            self._callgraph = None
            self._dfe = None
            self._env_builder = None
            # The execution engine's compiled code is per-function state
            # derived from the body: drop exactly that function's code.
            invalidate_module(self.module, fn)
            if self._cache_binding is not None:
                self._cache_binding.invalidate_function(fn)
            return
        invalidate_module(self.module)
        # The module's content no longer matches the cache entry it was
        # loaded from: stop publishing/evicting against that key.
        self._cache_binding = None
        self._aa = None
        self._pdg = None
        self._callgraph = None
        self._pointsto = None
        self._function_loops = {}
        self._loops = None
        self._ids = None
        self._dfe = None
        self._env_builder = None
