"""A census of malformed ``.nir`` bytes: seeded single-byte mutations of
the binary encoding of every registry module and of the seed-1
``bigmod`` module.

Each mutation flips one bit of a byte, sets a byte, deletes one, inserts
one, or truncates the data at a byte.  ``golden/nir_census.json`` holds,
per mutation, the edit and what the reader made of the mutated bytes:
the sha256 of the decoded module's printed text, or the class of the
exception it raised.

The reader must reproduce every row: the same module, or the same error
class (one of ``BinVersionError``, ``BinTruncatedError``,
``BinFormatError``).  Messages are free to change.

Re-record by running this file as a script (``PYTHONPATH=src``).
"""

import hashlib
import json
import os
import random
import sys

import pytest

from repro.frontend import compile_source
from repro.ir import print_module, read_module, write_module
from repro.workloads import all_workloads, get

_E2E = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "benchmarks", "e2e"
)
if _E2E not in sys.path:
    sys.path.insert(0, _E2E)

import bigmod  # noqa: E402  (benchmarks/e2e: the bigmod generator)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "nir_census.json")
#: The module ``bigmod_analysis`` builds at seed 1.
BIGMOD_SEED = 1
BIGMOD_INSTS = 6000
#: Mutations per module: a registry module decodes in about half a
#: millisecond, ``bigmod`` in about fifty.
MUTATIONS = {"registry": 92, "bigmod": 68}
EDITS = ("flip", "set", "delete", "insert", "truncate")
#: The only exceptions the reader may raise.
ERRORS = ("BinVersionError", "BinTruncatedError", "BinFormatError")


def _module_bytes(name: str) -> bytes:
    if name == "bigmod":
        module = compile_source(bigmod.generate(BIGMOD_SEED, BIGMOD_INSTS), name)
    else:
        module = get(name).compile()
    return write_module(module)


def mutations(name: str, data: bytes) -> list[tuple[str, int, int]]:
    """The census's ``(edit, offset, byte)`` edits of ``data``; ``byte``
    is the mask of a flip, the new value of a set or an insert, and 0
    for a deletion or a truncation."""
    rng = random.Random(f"nir-census:{name}")
    count = MUTATIONS["bigmod" if name == "bigmod" else "registry"]
    edits = []
    while len(edits) < count:
        edit = rng.choice(EDITS)
        at = rng.randrange(len(data) + (edit == "insert"))
        value = 0
        if edit == "flip":
            value = 1 << rng.randrange(8)
        elif edit in ("set", "insert"):
            value = rng.randrange(256)
            if edit == "set" and value == data[at]:
                continue
        edits.append((edit, at, value))
    return edits


def mutate(data: bytes, edit: str, at: int, value: int) -> bytes:
    if edit == "flip":
        return data[:at] + bytes([data[at] ^ value]) + data[at + 1:]
    if edit == "set":
        return data[:at] + bytes([value]) + data[at + 1:]
    if edit == "delete":
        return data[:at] + data[at + 1:]
    if edit == "insert":
        return data[:at] + bytes([value]) + data[at:]
    return data[:at]


def outcome(data: bytes) -> str:
    """The decoded module's printed sha256, or the class of the error."""
    try:
        module = read_module(data)
    except Exception as error:  # noqa: BLE001 - the census records every kind
        return type(error).__name__
    return hashlib.sha256(print_module(module).encode()).hexdigest()


def census_record(name: str) -> list[list]:
    data = _module_bytes(name)
    return [
        [edit, at, value, outcome(mutate(data, edit, at, value))]
        for edit, at, value in mutations(name, data)
    ]


def _names() -> list[str]:
    return [w.name for w in all_workloads()] + ["bigmod"]


def _golden() -> dict:
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", _names())
def test_census_agrees_with_the_record(name):
    data = _module_bytes(name)
    recorded = _golden()[name]
    edits = mutations(name, data)
    assert [list(edit) for edit in edits] == [row[:3] for row in recorded]
    faults = []
    for edit, at, value, old in recorded:
        new = outcome(mutate(data, edit, at, value))
        if new != old:
            faults.append(f"{edit} at {at} ({value}): {old} -> {new}")
    assert not faults, "\n".join(faults[:10])


def test_the_record_holds_only_structured_errors_and_modules():
    outcomes = [row[3] for rows in _golden().values() for row in rows]
    assert len(outcomes) == 21 * MUTATIONS["registry"] + MUTATIONS["bigmod"]
    assert {o for o in outcomes if len(o) != 64} <= set(ERRORS)
    assert any(len(o) == 64 for o in outcomes)


if __name__ == "__main__":
    golden = {name: census_record(name) for name in _names()}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as handle:  # one mutation a line
        handle.write("{\n" + ",\n".join(
            f"{json.dumps(name)}: [\n"
            + ",\n".join(json.dumps(record) for record in golden[name])
            + "\n]"
            for name in sorted(golden)
        ) + "\n}\n")
    print(f"recorded {GOLDEN}")
