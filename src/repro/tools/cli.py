"""Command-line front door for the noelle-* tools.

Mirrors how the paper's users drive NOELLE from the shell (Figure 1):

    repro-noelle whole-ir a.mc b.mc -o program.ir
    repro-noelle profile program.ir
    repro-noelle parallelize program.ir --technique helix --cores 12 -o par.ir
    repro-noelle run par.ir --cores 12
    repro-noelle licm program.ir -o opt.ir
    repro-noelle dead program.ir -o slim.ir
    repro-noelle report program.ir          # PDG/loop/IV summary
    repro-noelle analyze program.ir --loops # per-loop SCEV/deptest JSON
    repro-noelle compile program.ir --emit binary -o program.nir
    repro-noelle cache stats                # artifact-cache maintenance

Every verb that reads a program takes a ``.mc`` MiniC source, an ``.ir``
textual or ``.nir`` binary IR file (told apart by content, not
extension), or the name of a registered workload.  With
``NOELLE_CACHE_DIR`` set, loads go through the content-addressed
artifact cache.

Bad input — a missing file, malformed MiniC/IR/``.nir``, a missing
entry point, a training run that outlives its budget — is answered with
one ``repro-noelle <verb>: <Kind>: <message>`` line on stderr and the
documented exit code (``repro.serve.protocol``), never a traceback.
"""

from __future__ import annotations

import argparse
import sys

from .. import cache
from ..core.noelle import Noelle
from ..ir import Module, print_module, verify_module, write_module_file
from ..perf import STATS, stats_enabled
from ..robust.passmanager import PassManager
from .pipeline import (
    TECHNIQUES,
    execute,
    load,
    load_program,
    parallelize,
    prof_coverage,
)
from .whole_ir import whole_ir_from_files

#: The coldest loop ``parallelize`` transforms (share of the profiled
#: run), and so the module ``check --parallelize`` checks.
MIN_HOTNESS = 0.02


def _save_ir(module: Module, path: str | None) -> None:
    if path is not None and path.endswith(".nir"):
        write_module_file(module, path)
        print(f"wrote {path} (binary)", file=sys.stderr)
        return
    text = print_module(module)
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)
        print(f"wrote {path}", file=sys.stderr)


def _cmd_whole_ir(args) -> int:
    module = whole_ir_from_files(args.inputs, args.link_option)
    _save_ir(module, args.output)
    return 0


def _cmd_run(args) -> int:
    module = load_program(args.input)
    result = execute(
        module, args.entry or "main", num_cores=args.cores,
        step_limit=args.step_limit,
    )
    for value in result.output:
        print(value)
    if result.trap_kind == "StepLimitExceeded":
        print(f"STEP LIMIT: {result.trapped}", file=sys.stderr)
    else:
        # Next invocation (any process) hydrates instead of recompiling.
        cache.publish_artifacts(module)
        if result.trap_kind is None:
            print(f"[{result.cycles} cycles on {args.cores or 'default'} cores]",
                  file=sys.stderr)
            return 0
        print(f"TRAP: {result.trapped}", file=sys.stderr)
    # Only a run that stopped needs the exit-code table, which lives in
    # the serve protocol: the daemon's run op reports the same codes.
    from ..serve.protocol import trap_exit_code

    return trap_exit_code(result.trap_kind)


def _cmd_serve(args) -> int:
    import signal

    from ..serve.daemon import create_server, serve_forever

    server = create_server(
        host=args.host,
        port=args.port,
        workers=args.workers,
        deadline_s=args.deadline,
        max_attempts=args.retries + 1,
        crash_dir=args.crash_dir,
        verbose=args.verbose,
    )
    host, port = server.server_address[:2]

    def _shutdown(signum, frame):
        import threading

        # shutdown() must not run on the serve_forever thread.
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGINT, _shutdown)
    signal.signal(signal.SIGTERM, _shutdown)
    print(f"serving on http://{host}:{port}", file=sys.stderr)
    print(
        f"  workers={args.workers} deadline={args.deadline:g}s "
        f"retries={args.retries} crash_dir={args.crash_dir or '-'}",
        file=sys.stderr,
    )
    stubborn = serve_forever(server)
    if stubborn:
        print(f"serve: {stubborn} worker(s) needed force-kill",
              file=sys.stderr)
        return 1
    print("serve: clean shutdown", file=sys.stderr)
    return 0


def _cmd_profile(args) -> int:
    module = load_program(args.input)
    profile = prof_coverage(module)
    noelle = load(module, profile=profile)
    print(f"{'function':20s} {'invocations':>12s} {'hotness':>8s}")
    for fn in module.defined_functions():
        print(
            f"{fn.name:20s} {profile.function_invocations(fn):12d} "
            f"{profile.function_hotness(fn):8.3f}"
        )
    print(f"\n{'loop':30s} {'iterations':>11s} {'hotness':>8s}")
    for fn in module.defined_functions():
        for loop in noelle.loop_info(fn).loops():
            label = f"{fn.name}/%{loop.header.name}"
            print(
                f"{label:30s} {profile.loop_total_iterations(loop):11d} "
                f"{profile.loop_hotness(loop):8.3f}"
            )
    return 0


def _manager_for(args, noelle: Noelle) -> PassManager:
    return PassManager(noelle, crash_dir=args.crash_dir)


def _report_rollbacks(manager: PassManager) -> None:
    for result in manager.rolled_back():
        where = f" (bundle: {result.bundle})" if result.bundle else ""
        print(f"pass {result.name} rolled back: {result.error}{where}",
              file=sys.stderr)


def _cmd_parallelize(args) -> int:
    module = load_program(args.input)
    manager, count = parallelize(
        load(module),
        args.technique,
        num_cores=args.cores,
        num_stages=args.stages,
        minimum_hotness=args.min_hotness,
        crash_dir=args.crash_dir,
    )
    _report_rollbacks(manager)
    print(f"parallelized {count} loop(s) with {args.technique}",
          file=sys.stderr)
    verify_module(module)
    _save_ir(module, args.output)
    return 0


def _cmd_licm(args) -> int:
    module = load_program(args.input)
    manager = _manager_for(args, load(module))
    result = manager.run_registered("licm")
    _report_rollbacks(manager)
    print(f"hoisted {result.value if result.ok else 0} invariant "
          f"instruction(s)", file=sys.stderr)
    _save_ir(module, args.output)
    return 0


def _cmd_dead(args) -> int:
    module = load_program(args.input)
    before = module.num_instructions()
    manager = _manager_for(args, load(module))
    result = manager.run_registered("dead")
    _report_rollbacks(manager)
    removed = result.value if result.ok else []
    after = module.num_instructions()
    print(
        f"removed {len(removed)} function(s): {', '.join(removed) or '-'} "
        f"({before} -> {after} instructions)",
        file=sys.stderr,
    )
    _save_ir(module, args.output)
    return 0


def _cmd_check(args) -> int:
    from ..checks import run_checkers, worst_severity
    from ..checks.diagnostics import has_errors

    module = load_program(args.input)
    noelle = load(module)
    if args.parallelize:
        manager, _ = parallelize(
            noelle,
            args.parallelize,
            num_cores=args.cores,
            num_stages=args.stages,
            minimum_hotness=MIN_HOTNESS,
            crash_dir=args.crash_dir,
        )
        _report_rollbacks(manager)
    names = args.checkers.split(",") if args.checkers else None
    diagnostics = noelle.run_checks(names=names)
    for diagnostic in diagnostics:
        print(diagnostic)
    if args.oracle:
        from ..checks.oracle import RaceOracle

        oracle = RaceOracle(module, num_cores=args.cores)
        result = oracle.run()
        if result.trapped:
            print(f"oracle run trapped: {result.trapped}", file=sys.stderr)
        for race in oracle.races:
            print(f"dynamic: {race}")
        statically_flagged = sum(
            1 for d in diagnostics if d.checker == "races"
        )
        print(
            f"oracle: {len(oracle.races)} dynamic race(s), "
            f"{statically_flagged} static race finding(s)",
            file=sys.stderr,
        )
    counts = {"error": 0, "warning": 0, "info": 0}
    for diagnostic in diagnostics:
        counts[diagnostic.severity] += 1
    worst = worst_severity(diagnostics) or "clean"
    print(
        f"check: {counts['error']} error(s), {counts['warning']} warning(s), "
        f"{counts['info']} info ({worst})",
        file=sys.stderr,
    )
    return 1 if has_errors(diagnostics) else 0


def _cmd_fuzz(args) -> int:
    from ..fuzz.driver import UnknownOracleError, run_campaign

    chosen = {}
    if args.oracles is not None:
        chosen["oracles"] = tuple(
            name.strip() for name in args.oracles.split(",") if name.strip()
        )

    def progress(done: int, total: int, found: int) -> None:
        if done % 50 == 0 or done == total:
            print(
                f"[fuzz] {done}/{total} cases, {found} divergence(s)",
                file=sys.stderr,
            )

    try:
        report = run_campaign(
            seed=args.seed,
            count=args.count,
            jobs=args.jobs,
            crash_dir=args.crash_dir,
            fixtures_dir=args.fixtures_dir,
            minimize=not args.no_minimize,
            progress=progress,
            **chosen,
        )
    except UnknownOracleError as error:
        print(f"repro-noelle fuzz: {error}", file=sys.stderr)
        return 2
    for record in report.divergences:
        print(
            f"DIVERGENCE [{record['oracle']}] seed={record['seed']} "
            f"technique={record.get('technique')}\n"
            f"  {record['detail'].splitlines()[0][:200]}"
        )
    for failure in report.worker_failures:
        print(f"WORKER FAILURE: {failure}")
    for path in report.bundle_paths:
        print(f"bundle: {path}", file=sys.stderr)
    for path in report.fixture_paths:
        print(f"fixture: {path}", file=sys.stderr)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_compile(args) -> int:
    """Translate between MiniC / textual IR / binary IR."""
    module = load_program(args.input)
    output = args.output
    emit = args.emit
    if emit is None:
        emit = "binary" if output and output.endswith(".nir") else "text"
    if emit == "binary":
        if output is None or output == "-":
            print("repro-noelle compile: --emit binary needs -o FILE",
                  file=sys.stderr)
            return 2
        if not output.endswith(".nir"):
            write_module_file(module, output)
            print(f"wrote {output} (binary)", file=sys.stderr)
            return 0
    _save_ir(module, output)
    return 0


def _cmd_cache(args) -> int:
    store = cache.get_store()
    if store is None:
        print(
            "repro-noelle cache: NOELLE_CACHE_DIR is not set "
            "(the artifact cache is disabled)",
            file=sys.stderr,
        )
        return 2
    if args.action == "stats":
        info = store.stats()
        print(f"cache root: {info['root']}")
        print(f"  entries:      {info['entries']}")
        print(f"  aliases:      {info['aliases']}")
        for kind, files in info["artifacts"].items():
            print(f"  {kind + ' files:':<14}{files}")
        print(f"  total bytes:  {info['total_bytes']}")
        return 0
    if args.action == "clear":
        removed = store.clear()
        print(f"cache clear: removed {removed} object(s)", file=sys.stderr)
        return 0
    pruned = store.gc()
    print(
        f"cache gc: pruned {pruned['pruned_entries']} entry(ies), "
        f"{pruned['pruned_aliases']} alias(es), "
        f"{pruned['pruned_tmp']} tmp file(s)",
        file=sys.stderr,
    )
    return 0


def _cmd_report(args) -> int:
    module = load_program(args.input)
    noelle = load(module)
    pdg = noelle.pdg()
    print(f"module: {module.name}")
    print(f"  functions: {len(module.functions)} "
          f"({sum(1 for _ in module.defined_functions())} defined)")
    print(f"  instructions: {module.num_instructions()}")
    print(f"  PDG: {pdg.num_nodes()} nodes, {pdg.num_edges()} edges "
          f"({pdg.memory_disproved}/{pdg.memory_queries} memory deps disproved)")
    for loop in noelle.loops():
        dag = loop.sccdag
        iv = loop.governing_iv()
        print(
            f"  loop {loop.structure.function.name}/%{loop.structure.header.name}: "
            f"{len(dag.sccs)} SCCs "
            f"(seq={len(dag.sequential_sccs())}, red={len(dag.reducible_sccs())}) "
            f"governing-IV={'yes' if iv else 'no'} doall={loop.is_doall()}"
        )
    return 0


def _value_json(value):
    """JSON-friendly rendering of an IR value / int used in SCEV facts."""
    from ..ir.values import ConstantInt

    if value is None:
        return None
    if isinstance(value, int):
        return value
    if isinstance(value, ConstantInt):
        return value.value
    ref = getattr(value, "ref", None)
    return ref() if callable(ref) else repr(value)


def _cmd_analyze(args) -> int:
    """Dump per-loop symbolic facts (IVs, trip counts, dependence tests)."""
    import json

    from ..analysis.deptest import DependenceTester
    from ..core.induction import InductionVariableManager
    from ..ir.instructions import Load, Store

    module = load_program(args.input)
    noelle = load(module)
    loops = []
    for fn in module.defined_functions():
        for natural in noelle.loop_info(fn).loops():
            tester = DependenceTester(natural)
            manager = InductionVariableManager(natural)
            ivs = [
                {
                    "phi": iv.phi.ref(),
                    "start": _value_json(iv.start),
                    "step": _value_json(iv.step),
                    "governing": iv.is_governing,
                }
                for iv in manager.ivs
            ]
            accesses = [
                inst
                for block in natural.blocks
                for inst in block.instructions
                if isinstance(inst, (Load, Store))
            ]
            access_facts = []
            for index, inst in enumerate(accesses):
                affine = tester.access_of(inst)
                access_facts.append(
                    {
                        "id": index,
                        "inst": inst.ref(),
                        "block": inst.parent.name,
                        "kind": "store" if isinstance(inst, Store) else "load",
                        "affine": affine.describe() if affine else None,
                    }
                )
            tests = []
            for i, a in enumerate(accesses):
                for j in range(i, len(accesses)):
                    b = accesses[j]
                    if not isinstance(a, Store) and not isinstance(b, Store):
                        continue
                    verdict = tester.test_pair(a, b)
                    entry = {
                        "a": i,
                        "b": j,
                        "verdict": verdict.kind,
                        "reason": verdict.reason,
                    }
                    if verdict.distance is not None:
                        entry["distance"] = verdict.distance
                    tests.append(entry)
            loops.append(
                {
                    "function": fn.name,
                    "header": natural.header.name,
                    "depth": natural.depth(),
                    "trip_count": tester.trip,
                    "induction_variables": ivs,
                    "memory_accesses": access_facts,
                    "dependence_tests": tests,
                }
            )
    json.dump({"module": module.name, "loops": loops}, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


_INPUT_HELP = "an .mc/.ir/.nir path or a workload name"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-noelle",
        description="The noelle-* tool chain of the NOELLE reproduction.",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print analysis perf counters/timers to stderr when done "
        "(equivalent to NOELLE_STATS=1)",
    )
    parser.add_argument(
        "--crash-dir",
        default=None,
        metavar="DIR",
        help="where rolled-back passes write crash bundles "
        "(pre-pass IR + report.json); unset keeps bundles in memory only",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    whole = sub.add_parser("whole-ir", help="compile+link sources into one IR file")
    whole.add_argument("inputs", nargs="+")
    whole.add_argument("-o", "--output", default=None)
    whole.add_argument("--link-option", action="append", default=[])
    whole.set_defaults(func=_cmd_whole_ir)

    run = sub.add_parser(
        "run",
        help="execute a program on the simulated machine; exit codes: "
        "0 ok, 1 input error, 3 memory trap, 4 step-limit exceeded, "
        "5 entry not found",
    )
    run.add_argument("input", help=_INPUT_HELP)
    run.add_argument("--cores", type=int, default=None)
    run.add_argument("--entry", default=None, metavar="FN",
                     help="entry function (default: main)")
    run.add_argument("--step-limit", type=int, default=None,
                     help="abort with exit code 4 after this many steps")
    run.set_defaults(func=_cmd_run)

    serve = sub.add_parser(
        "serve",
        help="run the compiler-as-a-service daemon (JSON over HTTP; "
        "POST /compile /parallelize /run /check, GET /healthz /stats)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8414)
    serve.add_argument("--workers", type=int, default=2,
                       help="supervised worker processes (sessions are "
                       "routed to a fixed worker to keep caches warm)")
    serve.add_argument("--deadline", type=float, default=30.0,
                       help="default per-request wall-clock deadline "
                       "(seconds); requests may lower it, cap 600")
    serve.add_argument("--retries", type=int, default=2,
                       help="max retries for transient failures "
                       "(exponential backoff with jitter)")
    serve.add_argument("--verbose", action="store_true",
                       help="log each HTTP request to stderr")
    serve.set_defaults(func=_cmd_serve)

    profile = sub.add_parser("profile", help="noelle-prof-coverage summary")
    profile.add_argument("input", help=_INPUT_HELP)
    profile.set_defaults(func=_cmd_profile)

    par = sub.add_parser("parallelize", help="apply DOALL/HELIX/DSWP")
    par.add_argument("input", help=_INPUT_HELP)
    par.add_argument("-o", "--output", default=None)
    par.add_argument("--technique", choices=TECHNIQUES, default="doall")
    par.add_argument("--cores", type=int, default=12)
    par.add_argument("--stages", type=int, default=4)
    par.add_argument("--min-hotness", type=float, default=MIN_HOTNESS)
    par.set_defaults(func=_cmd_parallelize)

    licm = sub.add_parser("licm", help="loop invariant code motion")
    licm.add_argument("input", help=_INPUT_HELP)
    licm.add_argument("-o", "--output", default=None)
    licm.set_defaults(func=_cmd_licm)

    dead = sub.add_parser("dead", help="dead function elimination")
    dead.add_argument("input", help=_INPUT_HELP)
    dead.add_argument("-o", "--output", default=None)
    dead.set_defaults(func=_cmd_dead)

    compile_cmd = sub.add_parser(
        "compile",
        help="translate between MiniC (.mc), textual IR (.ir), and "
        "binary IR (.nir)",
    )
    compile_cmd.add_argument("input", help=_INPUT_HELP)
    compile_cmd.add_argument("-o", "--output", default=None)
    compile_cmd.add_argument(
        "--emit",
        choices=("text", "binary"),
        default=None,
        help="output form (default: binary iff the output ends in .nir)",
    )
    compile_cmd.set_defaults(func=_cmd_compile)

    cache_cmd = sub.add_parser(
        "cache",
        help="inspect or maintain the artifact cache (NOELLE_CACHE_DIR)",
    )
    cache_cmd.add_argument("action", choices=("stats", "clear", "gc"))
    cache_cmd.set_defaults(func=_cmd_cache)

    report = sub.add_parser("report", help="PDG/loop/IV summary of an IR file")
    report.add_argument("input", help=_INPUT_HELP)
    report.set_defaults(func=_cmd_report)

    analyze = sub.add_parser(
        "analyze",
        help="dump per-loop symbolic analysis facts (induction variables, "
        "SCEV trip counts, dependence-test verdicts) as JSON",
    )
    analyze.add_argument("input", help=_INPUT_HELP)
    analyze.add_argument(
        "--loops",
        action="store_true",
        help="per-loop facts (the default and currently only report)",
    )
    analyze.set_defaults(func=_cmd_analyze)

    check = sub.add_parser(
        "check",
        help="run the static checker suite (races/sanitizer/lint) over an "
        "IR file, MiniC file, or registered workload; exits non-zero on "
        "ERROR diagnostics",
    )
    check.add_argument("input", help=_INPUT_HELP)
    check.add_argument(
        "--parallelize",
        choices=TECHNIQUES,
        default=None,
        help="parallelize first (profile + rm-lc-dependences + technique), "
        "then check the transformed module",
    )
    check.add_argument("--cores", type=int, default=12)
    check.add_argument("--stages", type=int, default=4)
    check.add_argument(
        "--checkers",
        default=None,
        metavar="NAMES",
        help="comma-separated subset of checkers (default: all registered)",
    )
    check.add_argument(
        "--oracle",
        action="store_true",
        help="also execute the module under the dynamic race oracle and "
        "print observed races next to the static findings",
    )
    check.set_defaults(func=_cmd_check)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: generate seeded MiniC programs and "
        "cross-check the engines, the parallelizers, the binary IR "
        "round-trip, and the checkers against the race oracle",
    )
    fuzz.add_argument("--seed", type=int, default=1,
                      help="base campaign seed (default 1)")
    fuzz.add_argument("--count", type=int, default=100,
                      help="number of programs to generate (default 100)")
    fuzz.add_argument("--jobs", type=int, default=None,
                      help="fan cases out over N supervised worker "
                      "processes")
    fuzz.add_argument("--oracles", default=None, metavar="LIST",
                      help="comma-separated subset of the differential "
                      "oracles (default: all of them; an unknown name "
                      "is refused with the list)")
    fuzz.add_argument("--fixtures-dir", default=None, metavar="DIR",
                      help="write a regression-fixture JSON per "
                      "divergence (ready for tests/fuzz/regressions/)")
    fuzz.add_argument("--no-minimize", action="store_true",
                      help="skip delta-debugging the decision traces of "
                      "failing cases")
    fuzz.set_defaults(func=_cmd_fuzz)
    return parser


def _check_widths(args) -> None:
    """A verb's ``--cores`` or ``--stages`` below 1 is bad input, as it is
    to serve."""
    for flag in ("cores", "stages"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            from ..serve.protocol import ProtocolError

            raise ProtocolError(f"--{flag} must be >= 1, got {value}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_widths(args)
        status = args.func(args)
    except Exception as error:
        from ..serve.protocol import input_error_exit_code

        kind = type(error).__name__
        status = input_error_exit_code(kind)
        if status is None:
            raise  # not bad input: a bug, and it should look like one
        print(f"repro-noelle {args.command}: {kind}: {error}",
              file=sys.stderr)
    if args.stats and not stats_enabled():
        # NOELLE_STATS=1 already reports via atexit; avoid printing twice.
        STATS.report()
    return status


if __name__ == "__main__":
    sys.exit(main())
