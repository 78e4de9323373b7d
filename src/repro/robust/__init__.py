"""repro.robust — transactional pass execution, fault injection, crash bundles.

The package exports nothing; import from the submodule that holds the
name.  ``faults`` (budgets, fault plans, the ``checkpoint`` hook) is
stdlib-only and is what the IR verifier and the alias analyses import,
so a process that only loads and runs a module pays for it alone;
``diagnostics`` (crash bundles, ``TransformError``) and ``passmanager``
(``PassManager``, ``build_pass``) load when a transform runs.
"""
