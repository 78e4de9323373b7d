"""A fresh process imports only what it runs.

Three doors, each in a new interpreter, report the ``repro`` modules
they loaded: the warm cache door (``cache.load_ir_text`` + ``attach``,
which hydrates the engine, then a run), ``repro-noelle run prog.ir``,
and ``import repro.tools.cli``.  None of them may load the front end,
the transforms, the fuzzer or the daemon; the warm door also loads no
pass manager, no crash bundle and none of the abstractions only a
transform builds.

A warm hit that does no more than hydrate — module, PDG shards and
engine plans, as ``benchmarks/e2e/load_child.py`` brings a program to
engine-ready — loads exactly :data:`WARM_HIT_MODULES`: no compiler, no
walker, no alias analysis, no shard builder and no ``.nir`` writer.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro import cache
from repro.core.noelle import Noelle
from repro.frontend import compile_source
from repro.interp.engine import engine_for
from repro.ir import print_module
from repro.workloads import get

SRC = os.path.dirname(os.path.dirname(repro.__file__))

SOURCE = """
int a[64];
int fill(int n) { int i; for (i = 0; i < n; i = i + 1) { a[i] = i * 3 % 17; } return n; }
int total(int n) { int i; int s; s = 0;
  for (i = 0; i < n; i = i + 1) { s = s + a[i]; } return s; }
int main() { fill(64); print_int(total(64)); return 0; }
"""

#: Loaded by no door: they build programs, transform them or serve them.
NEVER = ("repro.frontend", "repro.xforms", "repro.fuzz", "repro.serve")

#: What a transform loads: absent from the warm door too.
TRANSFORM_ONLY = (
    "repro.robust.diagnostics",
    "repro.robust.passmanager",
    *(
        f"repro.core.{name}"
        for name in (
            "loopbuilder", "scheduler", "partitioner", "task", "environment",
            "dataflow", "callgraph", "islands", "ivstepper", "reduction",
        )
    ),
)

#: Printed last by every door: the ``repro`` modules it loaded.
REPORT = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
)

WARM_DOOR = """
import sys
from repro import cache
from repro.core.noelle import Noelle
from repro.interp import Interpreter
from repro.perf import STATS

with open(sys.argv[1]) as handle:
    module = cache.load_ir_text(handle.read(), "prog")
cache.attach(Noelle(module))
result = Interpreter(module).run()
assert result.output == [{expected}], result.output
assert STATS.get("cache.hits") == 1
assert STATS.get("cache.engine_plans_hydrated") == 3
assert STATS.get("engine.compiles") == 0
"""


#: Every ``repro`` module a process loads that brings a program from a
#: warm store to engine-ready and prints it.
WARM_HIT_MODULES = [
    "repro",
    "repro.cache",
    "repro.cache.binding",
    "repro.cache.store",
    "repro.core",
    "repro.core.depgraph",
    "repro.core.noelle",
    "repro.core.pdg",
    "repro.interp",
    "repro.interp.engine",
    "repro.interp.semantics",
    "repro.ir",
    "repro.ir.binio",
    "repro.ir.instructions",
    "repro.ir.intrinsics",
    "repro.ir.module",
    "repro.ir.parser",
    "repro.ir.printer",
    "repro.ir.types",
    "repro.ir.values",
    "repro.ir.verifier",
    "repro.perf",
    "repro.robust",
    "repro.robust.faults",
]

WARM_HIT = """
import sys
from repro import cache
from repro.core.noelle import Noelle
from repro.interp.engine import engine_for
from repro.ir import print_module
from repro.perf import STATS

with open(sys.argv[1]) as handle:
    text = handle.read()
module = cache.load_ir_text(text, "crc32")
noelle = Noelle(module)
cache.attach(noelle)
noelle.pdg().materialize()
engine = engine_for(module)
for fn in module.defined_functions():
    engine.compiled(fn)
cache.publish_artifacts(module, noelle)
assert print_module(module) == text
functions = len(list(module.defined_functions()))
assert STATS.get("cache.hits") == 1
assert STATS.get("cache.pdg_shards_hydrated") == functions
assert STATS.get("cache.engine_plans_hydrated") == functions
assert STATS.get("engine.compiles") == 0
assert STATS.get("pdg.shard_builds") == 0
"""


def _modules(code: str, *args: str, cache_dir=None) -> list[str]:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("NOELLE_CACHE_DIR", None)
    if cache_dir is not None:
        env["NOELLE_CACHE_DIR"] = str(cache_dir)
    done = subprocess.run(
        [sys.executable, "-c", code + REPORT, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _loaded(modules: list[str], prefixes) -> list[str]:
    return [
        name for name in modules
        if any(name == p or name.startswith(p + ".") for p in prefixes)
    ]


@pytest.fixture
def program(tmp_path, monkeypatch):
    """``prog.ir`` and a cache that holds its module and engine plans."""
    module = compile_source(SOURCE, "prog")
    path = tmp_path / "prog.ir"
    path.write_text(print_module(module))
    monkeypatch.setenv("NOELLE_CACHE_DIR", str(tmp_path / "cache"))
    cold = cache.load_ir_text(path.read_text(), "prog")
    engine = engine_for(cold)
    for fn in cold.defined_functions():
        engine.compiled(fn)
    cache.publish_artifacts(cold, Noelle(cold))
    return path, tmp_path / "cache"


def test_warm_door(program):
    path, cache_dir = program
    code = WARM_DOOR.format(expected=sum(i * 3 % 17 for i in range(64)))
    modules = _modules(code, str(path), cache_dir=cache_dir)
    assert "repro.interp.engine" in modules
    assert _loaded(modules, NEVER) == []
    assert _loaded(modules, TRANSFORM_ONLY) == []


def test_cli_run(program):
    path, _cache_dir = program
    code = (
        "import sys\n"
        "from repro.tools.cli import main\n"
        "assert main(['run', sys.argv[1]]) == 0\n"
    )
    modules = _modules(code, str(path))
    assert "repro.interp.engine" in modules
    assert _loaded(modules, NEVER) == []


def test_cli_import():
    modules = _modules("import repro.tools.cli\n")
    assert "repro.tools.cli" in modules
    assert _loaded(modules, NEVER) == []


def test_a_warm_hit_loads_only_what_hydration_runs(tmp_path, monkeypatch):
    path = tmp_path / "crc32.ir"
    path.write_text(print_module(compile_source(get("crc32").source, "crc32")))
    monkeypatch.setenv("NOELLE_CACHE_DIR", str(tmp_path / "cache"))
    cold = cache.load_ir_text(path.read_text(), "crc32")
    noelle = Noelle(cold)
    cache.attach(noelle)
    noelle.pdg().materialize()
    engine = engine_for(cold)
    for fn in cold.defined_functions():
        engine.compiled(fn)
    cache.publish_artifacts(cold, noelle)
    modules = _modules(WARM_HIT, str(path), cache_dir=tmp_path / "cache")
    assert modules == WARM_HIT_MODULES
