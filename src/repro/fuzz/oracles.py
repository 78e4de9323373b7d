"""The five differential oracles the fuzzer cross-checks per program.

1. **engine** — the reference walker and the compiled engine must agree
   byte-for-byte: output, return value, trap state, *and* the
   steps/cycles counters, both for full runs and when a step budget
   cuts execution mid-program (the trap-site/boundary accounting the
   compiled engine corrects for).
2. **parallel** — a DOALL/HELIX/DSWP parallelization must commit (a
   rollback that no armed fault plan and no step/deadline budget
   explains is a transform that broke), must preserve program output
   (floats compared with the harness's relative tolerance), and the
   dynamic race oracle must stay silent on it.
3. **binio** — ``print → parse → print`` must be a fixpoint and the
   binary ``.nir`` encoding must round-trip byte-identically, on a
   profile-metadata-rich module.
4. **checkers** — every race the dynamic oracle observes must be
   covered by a static ``races`` finding (the zero-false-negative
   contract of tests/checks/test_differential.py), on generated
   programs instead of registry workloads.
5. **deptest** — every symbolic dependence-test verdict
   (:mod:`repro.analysis.deptest`) is validated against the actual
   addresses an observed run touches: a PROVEN_INDEPENDENT pair
   must never access a common address within one loop execution, and a
   PROVEN_DEPENDENT pair with a proven distance may only conflict at
   exactly that iteration gap.

Every oracle returns ``None`` (agreement) or a :class:`Divergence`;
unexpected exceptions inside an oracle are divergences too — a crash
while cross-checking is never "explained".
"""

from __future__ import annotations

import traceback

from ..analysis.deptest import DependenceTester
from ..analysis.loopinfo import LoopInfo
from ..checks import run_checkers
from ..checks.oracle import RaceOracle
from ..core.noelle import Noelle
from ..ir.instructions import Load, Store
from ..core.profiler import Profiler, embed_profile
from ..frontend.codegen import compile_source
from ..interp.interp import Interpreter, StepLimitExceeded
from ..ir import (
    parse_module,
    print_module,
    read_module,
    verify_module,
    write_module,
)
from ..tools.pipeline import (
    TECHNIQUES,
    execute,
    outputs_equivalent,
    parallelize,
)
from .gen import GeneratedProgram

#: Step budget for full fuzz runs; generated programs finish in a few
#: thousand steps, so hitting this means the input is invalid (the
#: case is skipped), not that an engine diverged.
FUZZ_STEP_LIMIT = 2_000_000


class Divergence:
    """One oracle disagreement, with everything needed to reproduce."""

    def __init__(self, oracle: str, detail: str, program: GeneratedProgram):
        self.oracle = oracle
        self.detail = detail
        self.program = program

    def to_dict(self) -> dict:
        return {
            "oracle": self.oracle,
            "detail": self.detail,
            "name": self.program.name,
            "family": self.program.family,
            "seed": self.program.seed,
            "choices": list(self.program.choices),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Divergence {self.oracle}: {self.detail[:60]}>"


class _EngineRun:
    """Outcome of one engine run, normalized for comparison."""

    def __init__(self, module, engine: str, step_limit: int):
        interp = Interpreter(module, step_limit=step_limit, engine=engine)
        self.exceeded = False
        self.error = ""
        try:
            result = interp.run()
        except StepLimitExceeded:
            self.exceeded = True
            result = interp.result
        except Exception as error:  # engine crash: compare the crash
            self.error = f"{type(error).__name__}: {error}"
            result = interp.result
        self.output = list(result.output)
        self.return_value = result.return_value
        self.steps = result.steps
        self.cycles = result.cycles
        self.trapped = result.trapped

    def signature(self) -> tuple:
        return (
            self.exceeded,
            self.error,
            self.output,
            self.return_value,
            self.steps,
            self.cycles,
            self.trapped,
        )

    def describe(self) -> str:
        return (
            f"exceeded={self.exceeded} error={self.error!r} "
            f"steps={self.steps} cycles={self.cycles} "
            f"trapped={self.trapped!r} ret={self.return_value!r} "
            f"output={self.output!r}"
        )


def _compare_engines(module_ref, module_eng, step_limit, program, label):
    ref = _EngineRun(module_ref, "reference", step_limit)
    eng = _EngineRun(module_eng, "compiled", step_limit)
    if ref.signature() != eng.signature():
        return (
            Divergence(
                "engine",
                f"{label}: reference[{ref.describe()}] vs "
                f"compiled[{eng.describe()}]",
                program,
            ),
            ref,
        )
    return None, ref


def engine_divergence(program: GeneratedProgram) -> Divergence | None:
    """Oracle 1: reference walker vs compiled engine."""
    module = compile_source(program.source, program.name)
    div, ref = _compare_engines(
        module, module, FUZZ_STEP_LIMIT, program, "full"
    )
    if div is not None:
        return div
    if ref.exceeded or ref.error:
        return None  # invalid input; both engines already agreed on it
    # Boundary probes: cut execution mid-program and right before the
    # end — the compiled engine's charge units must charge steps at
    # exactly the same instruction the walker does.
    for limit in {max(1, ref.steps // 2), max(1, ref.steps - 1)}:
        div, _ = _compare_engines(
            module, module, limit, program, f"limit={limit}"
        )
        if div is not None:
            return div
    return None


#: Rollback causes that are the budget's doing, not the transform's.
_BUDGET_KINDS = ("StepLimitExceeded", "PassDeadlineExceeded")


def transform_divergences(
    program: GeneratedProgram, technique: str, num_cores: int = 4
) -> list[Divergence]:
    """Oracles 2 + 4: one parallelization, checked for output equality,
    dynamic race freedom, and static-checker coverage of every observed
    race."""
    divergences = []
    seq_module = compile_source(program.source, program.name)
    seq_interp = Interpreter(seq_module, step_limit=FUZZ_STEP_LIMIT)
    try:
        seq = seq_interp.run()
    except StepLimitExceeded:
        return []  # invalid input (engine oracle already vetted parity)
    par_module = compile_source(program.source, program.name)
    noelle = Noelle(par_module)
    manager, _ = parallelize(noelle, technique, num_cores=num_cores)
    rollbacks = manager.rolled_back()
    rolled_back = [r.name for r in rollbacks]
    for result in rollbacks:
        if result.error.fault is None and result.error.kind not in _BUDGET_KINDS:
            divergences.append(
                Divergence(
                    "parallel",
                    f"{technique}: rolled back with no fault or budget to "
                    f"explain it: {result.error}",
                    program,
                )
            )
    verify_module(par_module)
    par = execute(par_module, num_cores=num_cores)
    if bool(par.trapped) != bool(seq.trapped):
        divergences.append(
            Divergence(
                "parallel",
                f"{technique}: trap mismatch {par.trapped!r} vs "
                f"{seq.trapped!r} (rolled_back={rolled_back})",
                program,
            )
        )
    elif not outputs_equivalent(par.output, seq.output):
        divergences.append(
            Divergence(
                "parallel",
                f"{technique}: outputs differ {par.output!r} vs "
                f"{seq.output!r} (rolled_back={rolled_back})",
                program,
            )
        )
    elif par.return_value != seq.return_value:
        divergences.append(
            Divergence(
                "parallel",
                f"{technique}: return {par.return_value!r} vs "
                f"{seq.return_value!r} (rolled_back={rolled_back})",
                program,
            )
        )
    # Oracle 4: static checkers vs the dynamic race oracle on the same
    # transformed module.
    diagnostics = run_checkers(par_module, noelle)
    static_races = [d for d in diagnostics if d.checker == "races"]
    oracle = RaceOracle(par_module, num_cores=num_cores)
    oracle.run()
    for race in oracle.races:
        covered = any(
            d.pass_name == race.kind and d.function == race.task
            for d in static_races
        )
        if not covered:
            divergences.append(
                Divergence(
                    "checkers",
                    f"{technique}: dynamic race [{race}] not covered by "
                    f"any static races finding "
                    f"(static={len(static_races)})",
                    program,
                )
            )
    if oracle.races and technique not in rolled_back:
        divergences.append(
            Divergence(
                "parallel",
                f"{technique}: committed parallelization races "
                f"dynamically: {oracle.races[0]}",
                program,
            )
        )
    return divergences


def binio_divergence(program: GeneratedProgram) -> Divergence | None:
    """Oracle 3: text print/parse fixpoint + binary round-trip identity
    on a metadata-rich module."""
    module = compile_source(program.source, program.name)
    # Embed profile counts so string/metadata encode paths are hot.
    embed_profile(module, Profiler(module).profile())
    text = print_module(module)
    reparsed = parse_module(text)
    verify_module(reparsed)
    text2 = print_module(reparsed)
    if text2 != text:
        return Divergence(
            "binio", f"text round-trip not a fixpoint:\n{_diff(text, text2)}",
            program,
        )
    data = write_module(module)
    decoded = read_module(data)
    verify_module(decoded)
    text3 = print_module(decoded)
    if text3 != text:
        return Divergence(
            "binio", f"binary round-trip changed text:\n{_diff(text, text3)}",
            program,
        )
    data2 = write_module(decoded)
    if data2 != data:
        return Divergence(
            "binio",
            f"binary encoding not canonical: {len(data)} vs "
            f"{len(data2)} bytes",
            program,
        )
    return None


class _DepClaim:
    """One static dependence-test verdict awaiting dynamic validation."""

    __slots__ = ("fn_name", "loop", "a", "b", "verdict")

    def __init__(self, fn_name, loop, a, b, verdict):
        self.fn_name = fn_name
        self.loop = loop
        self.a = a
        self.b = b
        self.verdict = verdict

    def describe(self) -> str:
        return (
            f"{self.fn_name}/%{self.loop.header.name}: "
            f"{self.a.ref()} vs {self.b.ref()} claimed "
            f"{self.verdict.kind}"
            + (
                f"(distance={self.verdict.distance})"
                if self.verdict.distance is not None
                else ""
            )
            + f" [{self.verdict.reason}]"
        )


class _DepRecorder:
    """Per-loop (run, iteration, address) logs for claimed access pairs.

    Installed as the interpreter's ``edge_observer`` + ``memory_observer``
    pair: the edge observer counts loop executions (header entered from
    outside) and iterations (header entered from a latch), the memory
    observer stamps each claimed instruction's accesses with the current
    position of every claimed loop containing it.
    """

    def __init__(self, claims: "list[_DepClaim]"):
        self.loops: dict[int, object] = {}
        self.counters: dict[int, list[int]] = {}  # loop id -> [run, iter]
        self.inst_loops: dict[int, list[int]] = {}
        self.events: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        for claim in claims:
            loop_id = id(claim.loop)
            self.loops[loop_id] = claim.loop
            self.counters.setdefault(loop_id, [0, -1])
            for inst in (claim.a, claim.b):
                loops = self.inst_loops.setdefault(id(inst), [])
                if loop_id not in loops:
                    loops.append(loop_id)

    def on_edge(self, from_block, to_block) -> None:
        for loop_id, loop in self.loops.items():
            if to_block is not loop.header:
                continue
            counter = self.counters[loop_id]
            if loop.contains_block(from_block):
                counter[1] += 1  # back edge: next iteration
            else:
                counter[0] += 1  # fresh execution of the loop
                counter[1] = 0

    def on_access(self, kind: str, address: int, inst) -> None:
        for loop_id in self.inst_loops.get(id(inst), ()):
            run, iteration = self.counters[loop_id]
            if iteration < 0:
                continue  # loop never entered through its header yet
            self.events.setdefault((id(inst), loop_id), []).append(
                (run, iteration, address)
            )

    def accesses_of(self, inst, loop) -> list[tuple[int, int, int]]:
        return self.events.get((id(inst), id(loop)), [])


def _check_dep_claim(claim: _DepClaim, recorder: _DepRecorder) -> str | None:
    """Violation description if the dynamic log contradicts the claim."""
    events_a = recorder.accesses_of(claim.a, claim.loop)
    events_b = recorder.accesses_of(claim.b, claim.loop)
    if not events_a or not events_b:
        return None
    by_run: dict[tuple[int, int], list[int]] = {}
    for run, iteration, address in events_b:
        by_run.setdefault((run, address), []).append(iteration)
    for run, iter_a, address in events_a:
        iters_b = by_run.get((run, address))
        if not iters_b:
            continue
        if claim.verdict.is_independent:
            return (
                f"{claim.describe()} but both touched address {address} "
                f"in run {run} (a@iter {iter_a}, b@iters {iters_b})"
            )
        distance = claim.verdict.distance
        for iter_b in iters_b:
            if claim.a is claim.b and iter_b == iter_a:
                continue  # an access trivially aliases itself
            if iter_b - iter_a != distance:
                return (
                    f"{claim.describe()} but address {address} in run "
                    f"{run} conflicts at gap {iter_b - iter_a} "
                    f"(a@iter {iter_a}, b@iter {iter_b})"
                )
    return None


def deptest_divergence(program: GeneratedProgram) -> Divergence | None:
    """Oracle 5: symbolic dependence-test verdicts vs observed addresses.

    Every PROVEN_INDEPENDENT pair must never touch a common address
    within one execution of its loop; every PROVEN_DEPENDENT pair with a
    proven distance ``d`` may only conflict at exactly that iteration
    gap.  Claims are enumerated statically (independently of the
    ``NOELLE_DEPTEST`` flag) and validated against the observed memory
    trace of a run.
    """
    module = compile_source(program.source, program.name)
    claims: list[_DepClaim] = []
    for fn in module.defined_functions():
        for loop in LoopInfo(fn).loops():
            tester = DependenceTester(loop)
            accesses = [
                inst
                for block in loop.blocks
                for inst in block.instructions
                if isinstance(inst, (Load, Store))
            ]
            for i, a in enumerate(accesses):
                for b in accesses[i:]:
                    if not isinstance(a, Store) and not isinstance(b, Store):
                        continue  # read/read pairs are not dependences
                    verdict = tester.test_pair(a, b)
                    if verdict.is_independent or (
                        verdict.is_dependent
                        and verdict.distance is not None
                    ):
                        claims.append(_DepClaim(fn.name, loop, a, b, verdict))
    if not claims:
        return None
    recorder = _DepRecorder(claims)
    interp = Interpreter(module, step_limit=FUZZ_STEP_LIMIT)
    interp.edge_observer = recorder.on_edge
    interp.memory_observer = recorder.on_access
    try:
        interp.run()
    except StepLimitExceeded:
        return None  # invalid input; nothing to validate
    for claim in claims:
        violation = _check_dep_claim(claim, recorder)
        if violation is not None:
            return Divergence("deptest", violation, program)
    return None


def _diff(a: str, b: str, limit: int = 12) -> str:
    import difflib

    lines = list(
        difflib.unified_diff(
            a.splitlines(), b.splitlines(), lineterm="", n=1
        )
    )
    return "\n".join(lines[:limit])


def technique_for(program: GeneratedProgram) -> str:
    """Deterministic technique rotation so a campaign covers all three."""
    basis = program.seed if program.seed is not None else len(program.choices)
    return TECHNIQUES[basis % len(TECHNIQUES)]


#: Names accepted by ``run_oracles`` / the CLI ``--oracles`` flag.
ORACLES = ("engine", "parallel", "binio", "checkers", "deptest")


def run_oracles(
    program: GeneratedProgram,
    oracles: tuple[str, ...] = ORACLES,
    technique: str | None = None,
) -> list[Divergence]:
    """All requested oracles over one program.

    An exception escaping an oracle is itself a divergence: the system
    under test crashed on a valid generated program.
    """
    divergences: list[Divergence] = []
    technique = technique or technique_for(program)

    def guarded(oracle_name, thunk):
        try:
            return thunk()
        except Exception:
            divergences.append(
                Divergence(
                    oracle_name,
                    f"oracle crashed:\n{traceback.format_exc(limit=8)}",
                    program,
                )
            )
            return None

    if "engine" in oracles:
        div = guarded("engine", lambda: engine_divergence(program))
        if div:
            divergences.append(div)
    if "parallel" in oracles or "checkers" in oracles:
        found = guarded(
            "parallel",
            lambda: transform_divergences(program, technique),
        )
        for div in found or []:
            if div.oracle in oracles:
                divergences.append(div)
    if "binio" in oracles:
        div = guarded("binio", lambda: binio_divergence(program))
        if div:
            divergences.append(div)
    if "deptest" in oracles:
        div = guarded("deptest", lambda: deptest_divergence(program))
        if div:
            divergences.append(div)
    return divergences

