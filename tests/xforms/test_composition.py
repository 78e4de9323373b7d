"""Parallelizers compose through every encoding of the IR.

Technique t2 applied to technique t1's output, on 8 cores, as two
``repro-noelle parallelize`` runs would apply it: the module between
them goes through IR text, through ``.nir``, or through ``.nir`` and
``noelle-meta-clean``.  Generated code is found from the IR alone, so in
every cell:

* the program prints what the unparallelized program prints, untrapped;
* the second pass parallelizes the same number of loops through all
  three encodings;
* no run reports more speedup than it has cores.

One workload per (t1, t2); the four cells the tools once got wrong
through text are pinned by name.  The whole 21 x 9 sweep runs through
the CLI in CI.
"""

import pytest

from repro.ir import parse_module, print_module, read_module, write_module
from repro.robust import faults
from repro.tools import pipeline
from repro.workloads import get

pytestmark = pytest.mark.skipif(
    faults.enabled_in_env(),
    reason="an injected fault makes a rollback the expected outcome",
)

CORES = 8


def _through_text(module):
    return parse_module(print_module(module), module.name)


def _through_nir(module):
    return read_module(write_module(module))


def _through_nir_cleaned(module):
    module = _through_nir(module)
    pipeline.meta_clean(module)
    return module


ENCODINGS = {
    "text": _through_text,
    "nir": _through_nir,
    "nir+meta-clean": _through_nir_cleaned,
}

CELLS = [
    ("crc32", "doall", "doall"),
    ("sha", "doall", "helix"),
    ("bitcount", "doall", "dswp"),
    ("qsort", "helix", "doall"),
    ("basicmath", "helix", "helix"),
    # Text reported 458x on 8 cores: DSWP split the HELIX task's loop.
    ("swaptions", "helix", "dswp"),
    # Text died with "pop from empty queue 65".
    ("mcf", "dswp", "doall"),
    ("bodytrack", "dswp", "helix"),
    # Text trapped: "store to invalid address 13".
    ("mcf", "dswp", "dswp"),
    # Text trapped: "non-integer address 0.0".
    ("blackscholes", "dswp", "dswp"),
]


def _first_pass(name, technique):
    module = get(name).compile()
    _, count = pipeline.parallelize(
        pipeline.load(module), technique, num_cores=CORES
    )
    assert count >= 1, f"{technique} parallelized nothing in {name}"
    return module


@pytest.mark.parametrize("name,t1,t2", CELLS, ids=["-".join(c) for c in CELLS])
def test_second_technique_on_the_first_ones_output(name, t1, t2):
    sequential = pipeline.execute(get(name).compile(), num_cores=CORES)
    first = _first_pass(name, t1)
    counts = {}
    for encoding, through in ENCODINGS.items():
        module = through(first)
        _, counts[encoding] = pipeline.parallelize(
            pipeline.load(module), t2, num_cores=CORES
        )
        result = pipeline.execute(through(module), num_cores=CORES)
        where = f"{name} {t1} then {t2} through {encoding}"
        assert result.trapped is None, f"{where}: {result.trapped}"
        assert pipeline.outputs_equivalent(
            sequential.output, result.output
        ), where
        assert sequential.cycles <= CORES * result.cycles, (
            f"{where}: {sequential.cycles / result.cycles:.1f}x on {CORES} cores"
        )
    assert len(set(counts.values())) == 1, counts
