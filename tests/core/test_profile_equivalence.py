"""Profile equivalence: block-granular counting vs the per-instruction
observer it replaced.

``golden/profile_digests.json`` was recorded from the last commit whose
profiler attached a per-instruction Python callback (run this file as a
script with ``PYTHONPATH`` pointing at that commit's ``src`` to re-record).
Every number the profiler can answer — per function / block / instruction
counts, CFG edges, invocations, ``total_weight`` — goes into one canonical
listing per program; the listing's sha256 must not move, under either
executor.
"""

import hashlib
import json
import os

import pytest

from repro.core.profiler import Profiler, embed_profile
from repro.frontend import compile_source
from repro.fuzz.gen import SHAPES, generate_program
from repro.interp import Interpreter
from repro.ir.binio import write_module
from repro.workloads import all_workloads, get

ENGINES = ("compiled", "reference")
FUZZ_SEEDS = 20
GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "profile_digests.json")

#: Hand-written programs that unwind through partially executed blocks.
PARTIAL_BLOCK_SOURCES = {
    # The store is the 3rd instruction of main's only (fused) segment.
    "trap_third_of_segment": """
int a[4];
int n = 9;
int main() {
  a[n] = 1;
  a[0] = n + 2;
  print_int(a[0]);
  return a[0];
}
""",
    # The loop header carries two phis and then loads a[i]; the walk
    # leaves the array on the third evaluation of the header.
    "trap_in_phi_header": """
int a[4];
int main() {
  int i = 0;
  int s = 0;
  while (a[i] < 5) {
    s = s + i;
    i = i + 3;
  }
  print_int(s);
  return s;
}
""",
    # exit() two frames below main, in the middle of both callers' blocks.
    "exit_two_frames_deep": """
int a[4];
int deep(int k) {
  a[1] = k;
  if (k > 2) { exit(7); }
  a[2] = k;
  return k + 1;
}
int mid(int k) {
  int r = deep(k) + 3;
  a[3] = r;
  return r;
}
int main() {
  int s = 0;
  for (int i = 0; i < 6; i = i + 1) {
    s = s + mid(i);
    a[0] = s;
  }
  print_int(s);
  return s;
}
""",
    # An out-of-bounds store after a call in the same block: the block's
    # call segment completed, the segment after it did not.
    "oob_store_after_call": """
int a[4];
int bump(int k) { a[0] = a[0] + k; return a[0]; }
int main() {
  int s = 0;
  for (int i = 0; i < 5; i = i + 1) {
    int v = bump(i);
    a[v] = i;
    s = s + v;
  }
  print_int(s);
  return s;
}
""",
}


def canonical_listing(module, data) -> str:
    """Every count ``data`` holds for ``module``, in module order."""
    lines = []
    for fn in module.functions.values():
        lines.append(f"fn {fn.name} calls={data.function_invocations(fn)}")
        for block in fn.blocks:
            lines.append(f" bb {block.name} n={data.block_count(block)}")
            for index, inst in enumerate(block.instructions):
                lines.append(f"  {index} {inst.opcode} {data.count_of(inst)}")
            for successor in block.successors():
                lines.append(
                    f"  -> {successor.name} "
                    f"{data.edge_count(block, successor)}"
                )
    lines.append(f"total_weight {data.total_weight}")
    return "\n".join(lines)


def _digest(text) -> str:
    if isinstance(text, str):
        text = text.encode()
    return hashlib.sha256(text).hexdigest()


def _profile_digests(module) -> dict:
    """Digest of the count listing, and of the ``.nir`` bytes with the
    profile embedded (what fig5's pipeline persists)."""
    data = Profiler(module).profile()
    listing = _digest(canonical_listing(module, data))
    embed_profile(module, data)
    return {"counts": listing, "embedded": _digest(write_module(module))}


def _record() -> dict:
    golden = {"workloads": {}, "partial": {}}
    for workload in all_workloads():
        golden["workloads"][workload.name] = _profile_digests(
            workload.compile()
        )
    for name, source in PARTIAL_BLOCK_SOURCES.items():
        module = compile_source(source, name)
        data = Profiler(module).profile()
        golden["partial"][name] = {
            "listing": canonical_listing(module, data).split("\n"),
        }
    golden["fuzz"] = {family: _fuzz_digest(family) for family in SHAPES}
    return golden


def _fuzz_digest(family) -> str:
    """One digest over the listings of the family's 20 seeded programs."""
    listings = []
    for seed in range(FUZZ_SEEDS):
        program = generate_program(seed, family=family)
        module = compile_source(program.source, program.name)
        listings.append(canonical_listing(module, Profiler(module).profile()))
    return _digest("\n\n".join(listings))


def _golden() -> dict:
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", [w.name for w in all_workloads()])
def test_workload_profile_matches_recorded_digest(name, engine, monkeypatch):
    monkeypatch.setenv("NOELLE_ENGINE", engine)
    assert _profile_digests(get(name).compile()) == _golden()["workloads"][name]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(PARTIAL_BLOCK_SOURCES))
def test_partial_block_counts(name, engine, monkeypatch):
    monkeypatch.setenv("NOELLE_ENGINE", engine)
    module = compile_source(PARTIAL_BLOCK_SOURCES[name], name)
    data = Profiler(module).profile()
    listing = canonical_listing(module, data).split("\n")
    assert listing == _golden()["partial"][name]["listing"]
    # Every accounted step is one counted instruction, also in the
    # frames the trap / exit() unwound through.
    result = Interpreter(module).run()
    assert sum(data.instruction_counts.values()) == result.steps
    assert data.total_weight == sum(
        data.weight_of_instructions(fn.instructions())
        for fn in module.defined_functions()
    )


def test_partial_block_shapes():
    """The four programs really stop where their names say."""
    store = Interpreter(
        compile_source(PARTIAL_BLOCK_SOURCES["trap_third_of_segment"])
    ).run()
    assert store.trapped is not None and store.steps == 3
    header = Interpreter(
        compile_source(PARTIAL_BLOCK_SOURCES["trap_in_phi_header"])
    ).run()
    assert header.trapped is not None and "load" in header.trapped
    deep = Interpreter(
        compile_source(PARTIAL_BLOCK_SOURCES["exit_two_frames_deep"])
    ).run()
    assert deep.trapped is None and deep.return_value == 7
    after_call = Interpreter(
        compile_source(PARTIAL_BLOCK_SOURCES["oob_store_after_call"])
    ).run()
    assert after_call.trapped is not None and "store" in after_call.trapped


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("family", SHAPES)
def test_fuzz_families_profile_identically(family, engine, monkeypatch):
    """7 families x 20 seeds: both executors produce the recorded
    listings, hence the same ``ProfileData`` as each other."""
    monkeypatch.setenv("NOELLE_ENGINE", engine)
    assert _fuzz_digest(family) == _golden()["fuzz"][family]


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as handle:
        json.dump(_record(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {GOLDEN}")
