"""The IR parser's one-``findall``-per-line scanner against the
per-character tokenizer it replaced.

The reference below is that tokenizer, kept verbatim: it walks the line
a character at a time, skips whitespace, stops at ``;`` and matches one
token at each remaining position.  The scanner must split every line the
printer emits into the same tokens, and reject every malformed line with
the same ``ParseError`` text on the same line.
"""

import os
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend import compile_source
from repro.ir import ParseError, parse_module, print_module
from repro.ir.parser import _tokenize
from repro.workloads import all_workloads

_E2E = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "benchmarks", "e2e"
)
if _E2E not in sys.path:
    sys.path.insert(0, _E2E)

import bigmod  # noqa: E402  (benchmarks/e2e: the bigmod generator)


_REFERENCE_TOKEN_RE = re.compile(
    r"""
    (?P<float>-?\d+\.\d+(e[+-]?\d+)?)    # float literal
  | (?P<int>-?\d+)                        # integer literal
  | (?P<global>@[\w.$-]+)                 # @name
  | (?P<local>%[\w.$-]+)                  # %name
  | (?P<word>[A-Za-z_][\w.]*)             # keyword / opcode / type
  | (?P<punct>\.\.\.|->|[()\[\]{}=,*:])   # punctuation
    """,
    re.VERBOSE,
)


def reference_tokenize(text: str, line_no: int) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch == ";":
            break
        match = _REFERENCE_TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {ch!r}", line_no)
        tokens.append(match.group(0))
        pos = match.end()
    return tokens


def outcome(tokenize, line: str, line_no: int = 7):
    """The tokens of ``line``, or the text of the error it raises."""
    try:
        return tokenize(line, line_no)
    except ParseError as error:
        return f"ParseError: {error}"


def assert_same_lines(text: str) -> int:
    lines = text.splitlines()
    for line_no, line in enumerate(lines, 1):
        assert outcome(_tokenize, line, line_no) == outcome(
            reference_tokenize, line, line_no
        ), (line_no, line)
    return len(lines)


@pytest.mark.parametrize("workload", all_workloads(), ids=lambda w: w.name)
def test_every_printed_workload_line_tokenizes_identically(workload):
    assert assert_same_lines(print_module(workload.compile())) > 0


def test_a_large_generated_module_tokenizes_identically():
    module = compile_source(bigmod.generate(1, 6000), "bigmod")
    assert assert_same_lines(print_module(module)) > 5000


EDGE_LINES = [
    "",
    "   \t ",
    "%x = add i64 -5, 3",
    "%f = fadd double 1.5e+10, -2.25e-3",
    "%g = fadd double 1.5e, 2.",
    "define @f(i64 %a, ...) -> i64 (i64, ...)* pure {",
    "br i1 %c, label %then.1, label %else$2",
    "switch i64 %v, label %d [ i64 1, label %one ]",
    "ret i64 7 ; done",
    "ret i64 7 ;",
    "; a whole-line comment with $ and - and %",
    "ret i64 7 ; $ - % are fine inside a comment",
    " ret i64　7 ",
    "%x = add i64 1, $",
    "%x = add i64 1, -",
    "%x = sub i64 - 1",
    "- ret",
    "%",
    "%x = load i64, i64* %",
    "store i64 1, i64* % ; trailing",
    "ret i64 7 $ ; comment after the bad character",
    "@ = global i64 0",
    "ret i64 #7",
    "ret\x00",
    "ret i64 7\x0b",
]


@pytest.mark.parametrize("line", EDGE_LINES)
def test_edge_lines_match_the_reference(line):
    assert outcome(_tokenize, line) == outcome(reference_tokenize, line)


@pytest.mark.parametrize("bad, char", [
    ("  %x = add i64 1, $", "$"),
    ("  %x = sub i64 - 1", "-"),
    ("  ret i64 %", "%"),
])
def test_malformed_lines_fail_with_the_same_error_on_the_same_line(bad, char):
    text = "\n".join([
        "define @f() -> i64 {",
        "entry:",
        "  %y = add i64 1, i64 2 ; a trailing comment parses",
        bad,
        "  ret i64 %y",
        "}",
    ])
    with pytest.raises(ParseError) as raised:
        parse_module(text)
    expected = outcome(reference_tokenize, bad, 4)
    assert expected == f"ParseError: line 4: unexpected character {char!r}"
    assert f"ParseError: {raised.value}" == expected


_ALPHABET = st.sampled_from(list(
    "ai0159.-+e@%$_=,*:()[]{}>; \t #x"
))


@settings(max_examples=400, deadline=None)
@given(st.lists(_ALPHABET, max_size=24).map("".join))
def test_arbitrary_lines_match_the_reference(line):
    assert outcome(_tokenize, line) == outcome(reference_tokenize, line)
