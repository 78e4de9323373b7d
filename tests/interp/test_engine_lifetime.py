"""A module that ran on the compiled engine must still be collectable.

The engine hangs off its module; compiled functions point back at their
Functions and through them at the module, so the pair is a plain
reference cycle.  Nothing process-wide may keep either side alive.
"""

import gc
import weakref

from repro import cache
from repro.core.noelle import Noelle
from repro.core.profiler import Profiler
from repro.interp import Interpreter
from repro.interp.engine import existing_engine
from repro.perf import STATS
from repro.runtime.machine import ParallelMachine
from repro.serve import session as session_mod
from repro.serve.session import configure_worker, execute_job
from repro.tools.rm_lc_dependences import remove_loop_carried_dependences
from repro.workloads import get
from repro.xforms.doall import DOALL


def _dies(make) -> bool:
    """``make()`` returns a module after using it; is it gone once the
    last outside reference is?"""
    ref = weakref.ref(make())
    gc.collect()
    return ref() is None


def _crc32():
    return get("crc32").compile()


def test_module_dies_after_compiled_run():
    def make():
        module = _crc32()
        Interpreter(module).run()
        assert existing_engine(module).functions
        return module

    assert _dies(make)


def test_module_dies_after_profile():
    def make():
        module = _crc32()
        Profiler(module).profile()
        return module

    assert _dies(make)


def test_module_dies_after_the_parallelization_flow():
    def make():
        module = _crc32()
        noelle = Noelle(module)
        noelle.attach_profile(Profiler(module).profile())
        remove_loop_carried_dependences(noelle)
        assert DOALL(noelle, 4).run(0.001) >= 1
        assert ParallelMachine(module, num_cores=4).run().trapped is None
        return module

    assert _dies(make)


def test_cache_hydrated_module_dies(tmp_path, monkeypatch):
    monkeypatch.setenv("NOELLE_CACHE_DIR", str(tmp_path / "cache"))
    source = get("crc32").source

    def publish():
        module = cache.cached_compile(source, "crc32")
        noelle = Noelle(module)
        cache.attach(noelle)
        Interpreter(module).run()
        cache.publish_artifacts(module, noelle)
        return module

    def hydrate():
        hydrated = STATS.get("cache.engine_plans_hydrated")
        module = cache.cached_compile(source, "crc32")
        cache.attach(Noelle(module))
        assert STATS.get("cache.engine_plans_hydrated") > hydrated
        Interpreter(module).run()
        return module

    assert _dies(publish)
    assert _dies(hydrate)


def test_recompiles_into_one_name_keep_one_module(monkeypatch):
    monkeypatch.delenv("NOELLE_FAULTS", raising=False)
    configure_worker(arm_env_faults=False)
    try:
        source = get("crc32").source
        refs = []
        for index in range(20):
            execute_job({
                "op": "compile", "session": "s", "name": "m",
                "source": source + "\n" * index,
            })
            execute_job({"op": "run", "session": "s", "name": "m"})
            refs.append(
                weakref.ref(session_mod._SESSIONS["s"].modules["m"])
            )
        gc.collect()
        assert sum(ref() is not None for ref in refs) == 1
        assert refs[-1]() is session_mod._SESSIONS["s"].modules["m"]
    finally:
        configure_worker(arm_env_faults=False)
