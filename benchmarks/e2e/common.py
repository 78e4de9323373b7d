"""Pieces the four workloads share: where ``repro`` lives, the
traced compile steps, the pass-manager call with the transform body
exposed as its own span, expected-output files, and which STATS timers
belong to which layer metric."""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
SRC_DIR = os.path.join(ROOT, "src")
EXPECTED_DIR = os.path.join(HERE, "expected")
#: Everything a run writes (corpora, cache dirs, traces) lands here,
#: inside the checkout and named in .gitignore.
SCRATCH_ROOT = os.path.join(ROOT, ".bench_e2e")

# The benchmark measures the checkout it sits in, never an installed copy.
if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
    raise SystemExit(f"no program to measure: {SRC_DIR}/repro is missing")
if SRC_DIR not in sys.path:
    sys.path.insert(0, SRC_DIR)

from repro.frontend import parse_program  # noqa: E402
from repro.frontend.codegen import CodeGenerator, compile_source  # noqa: E402
from repro.ir import verify_module  # noqa: E402
from repro.opt import promote_allocas_module, simplify_module  # noqa: E402
from repro.perf import STATS  # noqa: E402
from repro.robust.passmanager import build_pass  # noqa: E402

from measure import StatsDelta, attribute  # noqa: E402

#: Cores of the simulated machine every parallelizer targets.
NUM_CORES = 8

#: STATS timers that measure one layer's work inside another layer's
#: opaque public call -> the span name those seconds are reported under
#: (per-layer metric ``<span name>_s``).
TIMER_LAYERS = (
    ("passmanager.snapshot", "robust.snapshot"),
    ("pointsto.solve", "analysis.pointsto"),
    ("pdg.build_shard", "core.pdg_materialize"),
    ("loop.build_ldg", "core.loops"),
    ("sccdag.build", "core.loops"),
    ("engine.compile", "interp.engine_compile"),
    ("cache.hydrate_module", "cache.hydrate_module"),
    ("cache.hydrate_pdg", "cache.hydrate_pdg"),
    ("engine.hydrate", "cache.engine_hydrate"),
    ("cache.publish", "cache.publish"),
)


def compile_program(source: str, name: str, rec):
    """``compile_source``; while tracing, the same five public steps one
    by one so that each gets its span."""
    if not rec.tracing:
        return compile_source(source, name)
    with rec.span("frontend.parse"):
        program = parse_program(source)
    with rec.span("frontend.codegen"):
        module = CodeGenerator(name).generate(program)
    with rec.span("ir.verify"):
        verify_module(module)
    with rec.span("opt.mem2reg"):
        promote_allocas_module(module)
    with rec.span("opt.simplify"):
        simplify_module(module)
    with rec.span("ir.verify"):
        verify_module(module)
    return module


def traced_call(rec, name: str, func, **tags):
    """``func()`` under the leaf span ``name``, with the seconds other
    layers' STATS timers measured inside it carved out (leaf only: an
    enclosing span would carve the same seconds a second time)."""
    if not rec.tracing:
        return func()
    delta = StatsDelta(STATS)
    with rec.span(name, **tags) as span:
        value = func()
    attribute(span, delta, TIMER_LAYERS)
    return value


def run_pass(manager, rec, name: str, **options):
    """``PassManager.run_registered(name, **options)``, spelled as its two
    public halves so that the transform body (``xforms.<name>``) is a
    child span of the whole transaction (``robust.pass``)."""
    canonical, body = build_pass(name, **options)
    label = "xforms." + canonical.replace("-", "_").replace(
        "rm_lc_dependences", "rm_lc_deps"
    )

    def spanned_body(noelle):
        return traced_call(rec, label, lambda: body(noelle))

    # Not a traced_call: the body span already carved out what other
    # layers did, and snapshot/verify are the transaction's own work.
    with rec.span("robust.pass", transform=canonical):
        return manager.run(canonical, spanned_body)


def aa_counts(delta) -> tuple[int, float]:
    """(alias queries, share of them answered from the memo) in ``delta``."""
    queries = delta.counter("aa.andersen.queries") + delta.counter(
        "aa.basic.queries")
    hits = delta.counter("aa.andersen.memo_hits") + delta.counter(
        "aa.basic.memo_hits")
    return queries, hits / queries if queries else 0.0


# -- expected outputs -----------------------------------------------------------

def expected_path(program: str) -> str:
    return os.path.join(EXPECTED_DIR, f"{program}.json")


def load_expected(program: str) -> dict:
    with open(expected_path(program)) as handle:
        return json.load(handle)


def _value_matches(got, want) -> bool:
    if isinstance(got, float) or isinstance(want, float):
        if got is None or want is None:
            return False
        scale = max(abs(float(got)), abs(float(want)), 1.0)
        return abs(float(got) - float(want)) <= 1e-6 * scale
    return got == want


def matches_expected(output, return_value, expected: dict) -> bool:
    """Exact for integers, 1e-6 relative for floats (parallel reductions
    re-associate additions) — the rule ``outputs_equivalent`` applies."""
    want = expected["output"]
    if len(output) != len(want):
        return False
    if not all(_value_matches(g, w) for g, w in zip(output, want)):
        return False
    return _value_matches(return_value, expected["return_value"])
