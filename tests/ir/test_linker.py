"""Tests for the module linker (noelle-whole-IR's substrate)."""

import pytest

from repro import ir
from repro.frontend import compile_source
from repro.interp import run_module
from repro.ir.linker import LinkError, link_modules


def test_definition_resolves_declaration():
    a = compile_source("int helper(int x); int main() { return helper(4); }", "a")
    b = compile_source("int helper(int x) { return x * 2; }", "b")
    linked = link_modules([a, b])
    ir.verify_module(linked)
    assert run_module(linked).return_value == 8


def test_declaration_after_definition():
    a = compile_source("int helper(int x) { return x + 1; }", "a")
    b = compile_source("int helper(int x); int main() { return helper(1); }", "b")
    linked = link_modules([a, b])
    assert run_module(linked).return_value == 2


def test_tentative_globals_merge():
    a = compile_source("int shared[4]; int main() { return shared[2]; }", "a")
    b = compile_source(
        "int shared[4];\nvoid unused() { shared[2] = 9; }", "b"
    )
    linked = link_modules([a, b])
    ir.verify_module(linked)
    # Both TUs reference the same storage now.
    result = run_module(linked)
    assert result.return_value == 0


def test_global_definition_wins_over_tentative():
    a = compile_source("int g; int main() { return g; }", "a")
    b = compile_source("int g = 41;\nint touch() { return g; }", "b")
    linked = link_modules([a, b])
    assert run_module(linked).return_value == 41


def test_duplicate_function_definitions_rejected():
    a = compile_source("int f() { return 1; }", "a")
    b = compile_source("int f() { return 2; }", "b")
    with pytest.raises(LinkError):
        link_modules([a, b])


def test_conflicting_function_types_rejected():
    a = compile_source("int f(int x); int main() { return f(1); }", "a")
    b = compile_source("double f(double x) { return x; }", "b")
    with pytest.raises(LinkError):
        link_modules([a, b])


def test_duplicate_global_definitions_rejected():
    a = compile_source("int g = 1;", "a")
    b = compile_source("int g = 2;", "b")
    with pytest.raises(LinkError):
        link_modules([a, b])


def test_metadata_merges_latest_wins():
    a = compile_source("int main() { return 0; }", "a")
    b = compile_source("int aux() { return 0; }", "b")
    a.metadata["k"] = 1
    b.metadata["k"] = 2
    linked = link_modules([a, b])
    assert linked.metadata["k"] == 2


def test_nothing_to_link():
    with pytest.raises(LinkError):
        link_modules([])


def test_cross_module_globals_and_calls_execute():
    main_src = """
int table[8];
void fill();
int main() {
  fill();
  return table[3];
}
"""
    lib_src = """
int table[8];
void fill() {
  int i;
  for (i = 0; i < 8; i = i + 1) { table[i] = i * i; }
}
"""
    linked = link_modules([compile_source(main_src, "m"), compile_source(lib_src, "l")])
    ir.verify_module(linked)
    assert run_module(linked).return_value == 9
