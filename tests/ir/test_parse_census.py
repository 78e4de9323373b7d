"""A census of malformed IR text: seeded single-line token mutations of
every printed registry module and of the seed-1 ``bigmod`` module.

Each mutation takes one line of a printed module and deletes, replaces,
inserts or swaps a token, or truncates the line.  ``golden/parse_census.json``
holds, per mutation, the mutated line and what the parser made of the
whole text: the sha256 of the reparsed module's printed text, or
``Kind: message`` of the exception it raised.

The parser must agree with the recorded outcome, less the recorded
faults:

* a recorded module is the same module;
* a recorded ``ParseError`` keeps its message.  Where it named no line
  (or line 0), it now names the line the fault is on;
* any other recorded exception is now a ``ParseError`` naming a line;
* except that where the mutated line has tokens left over after a
  complete entity, the outcome is a ``ParseError`` on that line naming
  them, and the line without them agrees with the record as above.

Re-record by running this file as a script (``PYTHONPATH=src``).
"""

import hashlib
import json
import os
import random
import re
import sys

import pytest

from repro.frontend import compile_source
from repro.ir import parse_module, print_module
from repro.ir.parser import _tokenize
from repro.workloads import all_workloads, get

_E2E = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "benchmarks", "e2e"
)
if _E2E not in sys.path:
    sys.path.insert(0, _E2E)

import bigmod  # noqa: E402  (benchmarks/e2e: the bigmod generator)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "parse_census.json")
#: The module ``bigmod_analysis`` builds at seed 1.
BIGMOD_SEED = 1
BIGMOD_INSTS = 6000
#: Mutations per module: a registry module parses in milliseconds,
#: ``bigmod`` in about a tenth of a second.
MUTATIONS = {"registry": 92, "bigmod": 68}
EDITS = ("delete", "replace", "insert", "truncate", "swap")
#: Tokens an edit may put in, besides the tokens of the module itself.
POOL = (
    "i64", "i1", "i8", "i0", "double", "void", "label", "*", ",", "(",
    ")", "[", "]", "{", "}", "=", "x", "to", "...", "->", ":", "0", "1",
    "7", "-1", "2.5", "null", "undef", "abc", "%x", "%p", "%7", "@main",
    "@nope", "add", "phi", "load", "store", "elem_ptr", "call", "br",
    "ret", "global", "declare", "define", "type",
)
_LINE = re.compile(r"line (\d+): (.*)", re.DOTALL)
LEFTOVER = "tokens left over: "


def _module_text(name: str) -> str:
    if name == "bigmod":
        module = compile_source(bigmod.generate(BIGMOD_SEED, BIGMOD_INSTS), name)
    else:
        module = get(name).compile()
    return print_module(module)


def mutations(name: str, text: str) -> list[tuple[int, str]]:
    """The census's (1-based line number, mutated line) edits of ``text``."""
    lines = text.splitlines()
    rng = random.Random(f"parse-census:{name}")
    candidates = [index for index, line in enumerate(lines) if line.strip()]
    module_tokens = [tok for line in lines for tok in _tokenize(line, 0)]
    count = MUTATIONS["bigmod" if name == "bigmod" else "registry"]
    edits = []
    while len(edits) < count:
        index = rng.choice(candidates)
        line = lines[index]
        tokens = _tokenize(line, index + 1)
        edit = rng.choice(EDITS)
        new = list(tokens)
        filler = rng.choice(POOL) if rng.random() < 0.5 else rng.choice(module_tokens)
        at = rng.randrange(len(tokens)) if tokens else 0
        if edit == "delete" and tokens:
            del new[at]
        elif edit == "replace" and tokens:
            new[at] = filler
        elif edit == "insert":
            new.insert(rng.randrange(len(tokens) + 1), filler)
        elif edit == "truncate" and tokens:
            new = new[:at]
        elif edit == "swap" and len(tokens) > 1:
            at = rng.randrange(len(tokens) - 1)
            new[at], new[at + 1] = new[at + 1], new[at]
        if new == tokens:
            continue
        indent = line[: len(line) - len(line.lstrip())]
        edits.append((index + 1, indent + " ".join(new)))
    return edits


def _replace_line(text: str, line_no: int, line: str) -> str:
    lines = text.splitlines()
    lines[line_no - 1] = line
    return "\n".join(lines) + "\n"


def outcome(text: str) -> str:
    """The printed module's sha256, or ``Kind: message`` of the error."""
    try:
        module = parse_module(text)
    except Exception as error:  # noqa: BLE001 - the census records every kind
        return f"{type(error).__name__}: {error}"
    return hashlib.sha256(print_module(module).encode()).hexdigest()


def census_record(name: str) -> list[list]:
    text = _module_text(name)
    return [
        [line_no, line, outcome(_replace_line(text, line_no, line))]
        for line_no, line in mutations(name, text)
    ]


def _line_of(message: str) -> tuple[int, str]:
    """(line number, rest) of a ``line N: ...`` message; 0 for none."""
    match = _LINE.fullmatch(message)
    return (int(match.group(1)), match.group(2)) if match else (0, message)


def disagreement(text: str, line_no: int, line: str, old: str, new: str):
    """Why ``new`` breaks the contract with the recorded ``old``, or None."""
    if new == old and ": " not in old:  # the same module
        return None
    if not new.startswith("ParseError: "):
        return "not a ParseError"
    new_line, new_rest = _line_of(new[len("ParseError: "):])
    if new_line < 1:
        return "names no line"
    if new_line == line_no and new_rest.startswith(LEFTOVER):
        # Reported as the line is read, before any fault found later: the
        # line less its leftover tokens must agree with the record.
        leftover = new_rest[len(LEFTOVER):].split()
        tokens = _tokenize(line, line_no)
        if tokens[len(tokens) - len(leftover):] != leftover:
            return "the leftover tokens do not end the line"
        kept = " ".join(tokens[: len(tokens) - len(leftover)])
        return disagreement(
            text, line_no, kept, old, outcome(_replace_line(text, line_no, kept))
        )
    if ": " not in old:
        return "a module became an error"
    if old.startswith("ParseError: "):
        old_line, old_rest = _line_of(old[len("ParseError: "):])
        if old_rest != new_rest:
            return "another ParseError message"
        if old_line and old_line != new_line:
            return "another line"
    return None


def _names() -> list[str]:
    return [w.name for w in all_workloads()] + ["bigmod"]


def _golden() -> dict:
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", _names())
def test_census_agrees_with_the_record(name):
    text = _module_text(name)
    recorded = _golden()[name]
    edits = mutations(name, text)
    assert [[n, line] for n, line in edits] == [r[:2] for r in recorded]
    faults = []
    for line_no, line, old in recorded:
        new = outcome(_replace_line(text, line_no, line))
        why = disagreement(text, line_no, line, old, new)
        if why is not None:
            faults.append(f"line {line_no} {line.strip()!r}: {why}: {old} -> {new}")
    assert not faults, "\n".join(faults[:10])


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
