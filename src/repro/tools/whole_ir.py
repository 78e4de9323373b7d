"""``noelle-whole-IR`` — one IR file for the whole program.

Consumes MiniC source files (the clang stand-in) and/or textual IR files,
compiles them, and links everything into a single module, embedding the
compilation options as module metadata — exactly the paper's tool, which
merges all bitcode so whole-program analyses (the alias analyses powering
the PDG) can see everything.
"""

from __future__ import annotations

import os

from ..ir import Module, parse_module, verify_module
from ..ir.linker import link_modules

LINK_OPTIONS_KEY = "noelle.link.options"

#: The name of the module ``noelle-whole-IR`` builds.
WHOLE_PROGRAM = "whole-program"


def whole_ir_from_sources(
    sources: list[str],
    link_options: list[str] | None = None,
    name: str = WHOLE_PROGRAM,
) -> Module:
    """Compile + link source *texts* into one verified module."""
    from ..frontend.codegen import compile_source

    modules = [
        compile_source(text, f"tu{index}") for index, text in enumerate(sources)
    ]
    return _combine(modules, link_options, name)


def whole_ir_from_files(
    paths: list[str],
    link_options: list[str] | None = None,
    name: str = WHOLE_PROGRAM,
) -> Module:
    """Compile + link files (``.mc`` MiniC or ``.ir`` textual IR)."""
    modules: list[Module] = []
    for path in paths:
        with open(path) as handle:
            text = handle.read()
        stem = os.path.splitext(os.path.basename(path))[0]
        if path.endswith(".ir"):
            module = parse_module(text, stem)
            verify_module(module)
        else:
            from ..frontend.codegen import compile_source

            module = compile_source(text, stem)
        modules.append(module)
    return _combine(modules, link_options, name)


def _combine(
    modules: list[Module], link_options: list[str] | None, name: str
) -> Module:
    if len(modules) == 1:
        combined = modules[0]
        combined.name = name
    else:
        combined = link_modules(modules, name)
    combined.metadata[LINK_OPTIONS_KEY] = list(link_options or [])
    verify_module(combined)
    return combined


def link_options_of(module: Module) -> list[str]:
    """The embedded options ``noelle-bin`` consults when finalizing."""
    return list(module.metadata.get(LINK_OPTIONS_KEY, []))
