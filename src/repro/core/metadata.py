"""Deterministic IDs and extendible metadata (Section 2.2, "Others").

NOELLE attaches deterministic IDs to instructions, basic blocks, loops, and
functions so abstractions can be serialized (the ``noelle-meta-*`` tools)
and reconstructed later without re-running expensive analyses.  IDs are
assigned in a canonical traversal order, so the same module always gets
the same IDs: they are recomputed, never stored in the IR.  Metadata
lives on the module and its functions only; no instruction carries any.
"""

from __future__ import annotations

from ..ir.instructions import Instruction
from ..ir.module import Module


class IDAssigner:
    """Assigns and resolves deterministic IDs for one module."""

    def __init__(self, module: Module):
        self.module = module
        self.instruction_ids: dict[int, int] = {}
        self._instruction_by_id: dict[int, Instruction] = {}
        self._assign()

    def _assign(self) -> None:
        next_inst = 0
        for fn in sorted(self.module.functions.values(), key=lambda f: f.name):
            for block in fn.blocks:
                for inst in block.instructions:
                    self.instruction_ids[id(inst)] = next_inst
                    self._instruction_by_id[next_inst] = inst
                    next_inst += 1

    # -- queries -----------------------------------------------------------------
    def id_of_instruction(self, inst: Instruction) -> int:
        return self.instruction_ids[id(inst)]

    def instruction_by_id(self, ident: int) -> Instruction:
        return self._instruction_by_id[ident]


def clean_noelle_metadata(module: Module) -> int:
    """Strip all ``noelle.*`` module and function metadata (the
    ``noelle-meta-clean`` tool).

    Tools find generated code from the IR alone
    (:func:`repro.ir.intrinsics.generated_functions`), so stripping does
    not change what a later tool parallelizes.  Returns how many metadata
    entries were removed.
    """
    removed = 0
    for key in [k for k in module.metadata if str(k).startswith("noelle.")]:
        del module.metadata[key]
        removed += 1
    for fn in module.functions.values():
        for key in [k for k in fn.metadata if str(k).startswith("noelle.")]:
            del fn.metadata[key]
            removed += 1
    return removed
