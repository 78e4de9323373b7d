"""The ``NOELLE_*`` environment switches are exactly five.

Every ``NOELLE_<NAME>`` that appears in a string literal under
``src/repro`` — a variable read, a help text, a docstring — is collected
from the syntax tree.  A new switch, or a mention of a removed one,
changes this set and must change the test (and ``ci.yml``'s header) with
it.
"""

import ast
import pathlib
import re

import repro

SWITCHES = {
    "NOELLE_STATS",
    "NOELLE_CHECKS",
    "NOELLE_FAULTS",
    "NOELLE_CACHE_DIR",
    "NOELLE_DEPTEST",
}


def _switches_named_in(root: pathlib.Path) -> dict[str, set[str]]:
    found: dict[str, set[str]] = {}
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                for name in re.findall(r"\bNOELLE_[A-Z0-9_]*", node.value):
                    found.setdefault(name, set()).add(str(path.relative_to(root)))
    return found


def test_the_switch_list_is_exactly_five():
    found = _switches_named_in(pathlib.Path(repro.__file__).parent)
    assert set(found) == SWITCHES, found
