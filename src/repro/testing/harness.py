"""The regression-test harness (Section 2.4).

Runs the micro-test corpus through a configurable pipeline of NOELLE
custom tools, comparing each transformed program's output against the
untransformed reference — the automatic testing the paper provides for
"NOELLE itself as well as custom tools built upon it".

Reproduced features:

* **tool pipelines via options** — a :class:`ToolConfig` names the tools
  to apply and their knobs ("tests are enabled by exposing NOELLE
  options");
* **surgical test generation** — ``force_loop_id`` makes a parallelizing
  tool transform *only* one specific loop ("a user can force a
  parallelizing custom tool to parallelize only a given loop");
* **bash-script generation** — :func:`generate_bash_script` writes the
  sequential driver script the paper optionally emits (its
  HTCondor/Slurm integration degrades to this script on one machine);
* **process fan-out** — ``run_corpus(..., jobs=N)`` distributes the
  (test, configuration) pairs over ``N`` worker processes — the
  single-machine stand-in for the paper's HTCondor/Slurm dispatch.
  Each pair already runs hermetically (its own modules, interpreters,
  and pass managers), so fan-out changes wall-clock time only; results
  come back in the same deterministic order as the sequential loop.
"""

from __future__ import annotations

from .. import cache
from ..interp.interp import Interpreter
from ..ir import verify_module
from ..robust.passmanager import PassManager
from ..tools.pipeline import (
    TECHNIQUES,
    execute,
    load,
    outputs_equivalent,
    parallelize,
)
from .corpus import MicroTest, build_corpus


class ToolConfig:
    """Which tools to apply, with their options."""

    def __init__(
        self,
        name: str,
        tools: list[str],
        num_cores: int = 8,
        minimum_hotness: float = 0.0,
        force_loop_id: int | None = None,
        rm_lc_dependences: bool = True,
    ):
        self.name = name
        #: Tool names in application order; any of: "licm", "dead",
        #: "carat", "coos", "time", "prvj", "perspective", "doall",
        #: "helix", "dswp" (aliases resolve via the pass registry).
        self.tools = tools
        self.num_cores = num_cores
        self.minimum_hotness = minimum_hotness
        #: When set, parallelizing tools touch only the loop with this
        #: NOELLE loop ID (surgical testing).
        self.force_loop_id = force_loop_id
        self.rm_lc_dependences = rm_lc_dependences

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ToolConfig {self.name}: {'+'.join(self.tools)}>"


class TestOutcome:
    """Result of one micro test under one configuration."""

    def __init__(self, test: MicroTest, config: ToolConfig):
        self.test = test
        self.config = config
        self.passed = False
        self.detail = ""
        #: Names of tools that failed and were rolled back (the program
        #: still runs, so the outcome can pass with entries here).
        self.rolled_back: list[str] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "PASS" if self.passed else f"FAIL({self.detail})"
        return f"<{self.test.name} @ {self.config.name}: {status}>"


def _apply_tools(module, config: ToolConfig) -> list[str]:
    """Run every configured tool as a pass-manager transaction; returns
    the names of the tools that were rolled back.

    A tool that crashes, hangs, or breaks the verifier is rolled back;
    the remaining tools still run, so one broken custom tool degrades a
    configuration instead of aborting the whole corpus run.
    """
    noelle = load(module)
    if {"prvj", "prvjeeves", "perspective"} & set(config.tools):
        noelle.run_profiler()
    managers = [PassManager(noelle)]
    for tool_name in config.tools:
        if tool_name in TECHNIQUES:
            manager, _ = parallelize(
                noelle,
                tool_name,
                num_cores=config.num_cores,
                minimum_hotness=config.minimum_hotness,
                only_loop_id=config.force_loop_id,
                rm_lc_dependences=config.rm_lc_dependences,
            )
            managers.append(manager)
        elif tool_name == "perspective":
            managers[0].run_registered(
                tool_name, default_cores=config.num_cores
            )
        else:
            managers[0].run_registered(tool_name)
        noelle.invalidate()
    return [r.name for m in managers for r in m.rolled_back()]


def run_micro_test(test: MicroTest, config: ToolConfig) -> TestOutcome:
    """Compile, transform, and compare against the reference run."""
    outcome = TestOutcome(test, config)
    try:
        reference_module = cache.cached_compile(test.source, test.name)
        reference = Interpreter(reference_module).run()
        # The reference module is never mutated: share its engine plans
        # with other workers/processes driving the same corpus.
        cache.publish_artifacts(reference_module)
        module = cache.cached_compile(test.source, test.name)
        outcome.rolled_back = _apply_tools(module, config)
        verify_module(module)
        result = execute(module, num_cores=config.num_cores)
        if result.trapped and not reference.trapped:
            outcome.detail = f"trap: {result.trapped}"
        elif not outputs_equivalent(result.output, reference.output):
            outcome.detail = (
                f"outputs differ: {result.output} vs {reference.output}"
            )
        else:
            outcome.passed = True
    except Exception as error:  # a tool crash is a test failure, not ours
        outcome.detail = f"{type(error).__name__}: {error}"
    return outcome


def _run_pair(pair: tuple[MicroTest, ToolConfig]) -> TestOutcome:
    """Worker for the process pool (module-level so it pickles)."""
    test, config = pair
    return run_micro_test(test, config)


def run_corpus(
    configs: list[ToolConfig],
    tests: list[MicroTest] | None = None,
    jobs: int | None = None,
) -> list[TestOutcome]:
    """Every micro test under every configuration.

    ``jobs=N`` (N > 1) fans the pairs out over a supervised pool of
    worker processes (:func:`repro.serve.pool.supervised_map`): input
    order is preserved, and a worker that dies abruptly (killed, OOM)
    costs only the pair it held — that pair comes back as a failed
    :class:`TestOutcome` whose ``detail`` carries the structured error,
    every other pair still returns, and the pool never hangs.
    """
    tests = tests if tests is not None else build_corpus()
    pairs = [(test, config) for config in configs for test in tests]
    if jobs is not None and jobs > 1 and len(pairs) > 1:
        from ..serve.pool import supervised_map

        outcomes = []
        for pair, task in zip(pairs, supervised_map(_run_pair, pairs, jobs)):
            if task.ok:
                outcomes.append(task.value)
            else:
                test, config = pair
                outcome = TestOutcome(test, config)
                outcome.detail = (
                    f"worker failure: {task.error.get('kind', 'unknown')}: "
                    f"{task.error.get('message', '')}"
                )
                outcomes.append(outcome)
        return outcomes
    return [_run_pair(pair) for pair in pairs]


DEFAULT_CONFIGS = [
    ToolConfig("plain", []),
    ToolConfig("licm", ["licm"]),
    ToolConfig("dead+licm", ["dead", "licm"]),
    ToolConfig("carat", ["carat"]),
    ToolConfig("doall", ["doall"]),
    ToolConfig("helix", ["helix"]),
]


def generate_bash_script(
    configs: list[ToolConfig] | None = None,
    tests: list[MicroTest] | None = None,
    python: str = "python",
) -> str:
    """The sequential driver script the paper's infrastructure emits.

    Each line runs one (test, configuration) pair in its own process via
    ``repro.testing`` as a module, so the script parallelizes trivially
    under GNU parallel / Slurm job arrays — the degenerate single-machine
    form of the paper's HTCondor/Slurm integration.
    """
    configs = configs if configs is not None else DEFAULT_CONFIGS
    tests = tests if tests is not None else build_corpus()
    lines = [
        "#!/bin/bash",
        "# Generated by repro.testing.harness — runs every micro test",
        "# through every tool configuration, sequentially.",
        "set -u",
        "failures=0",
    ]
    for config in configs:
        for test in tests:
            command = (
                f"{python} -m repro.testing "
                f"--test {test.name} --config {config.name}"
            )
            lines.append(
                f"{command} || {{ echo 'FAIL: {test.name} @ "
                f"{config.name}'; failures=$((failures+1)); }}"
            )
    lines.append('echo "done ($failures failures)"')
    lines.append("exit $((failures > 0))")
    return "\n".join(lines) + "\n"
