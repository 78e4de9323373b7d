"""Child process of ``cache_coldwarm``: bring every ``.ir`` file of a
directory to engine-ready (module + PDG materialized + every function
compiled) and report, as one JSON line, what that took.

    python3 load_child.py <src dir> <ir dir> <trace 0|1>

With ``NOELLE_CACHE_DIR`` set the modules come through the artifact
cache (``cache.load_ir_text`` + ``cache.attach``) and what was computed
is published back; without it, the text path (parse + verify).  The
parent times the whole process from outside — interpreter start
included, as a CLI user pays it; the numbers reported here only say
where inside the child the time went.
"""

import time

_START = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from measure import peak_rss_mb  # noqa: E402  (same directory)


def main(src_dir: str, ir_dir: str, trace: bool) -> dict:
    sys.path.insert(0, src_dir)
    from repro import cache
    from repro.core.noelle import Noelle
    from repro.interp.engine import engine_for
    from repro.ir import parse_module, print_module, verify_module
    from repro.perf import STATS

    import_s = time.perf_counter() - _START
    spans = []

    def timed(name, item, func):
        if not trace:
            return func()
        start = time.perf_counter()
        value = func()
        spans.append((name, item, start - _START, time.perf_counter() - _START))
        return value

    use_cache = cache.enabled()
    loaded = []
    for fname in sorted(os.listdir(ir_dir)):
        with open(os.path.join(ir_dir, fname)) as handle:
            text = handle.read()
        name = fname[:-3]
        if use_cache:
            module = timed("cache.load_ir_text", name,
                           lambda: cache.load_ir_text(text, name))
            noelle = Noelle(module)
            timed("cache.attach", name, lambda: cache.attach(noelle))
        else:
            module = timed("ir.parse", name, lambda: parse_module(text, name))
            timed("ir.verify", name, lambda: verify_module(module))
            noelle = Noelle(module)
        timed("core.pdg_materialize", name, lambda: noelle.pdg().materialize())
        engine = engine_for(module)
        timed("interp.engine_compile", name, lambda: [
            engine.compiled(fn) for fn in module.defined_functions()
        ])
        loaded.append((name, module, noelle))
    if use_cache:
        for name, module, noelle in loaded:
            timed("cache.publish", name,
                  lambda: cache.publish_artifacts(module, noelle))
    ready_s = time.perf_counter() - _START
    # Outside what the benchmark reads as load time only in the sense
    # that it is the check: the loaded module must print as the text did.
    digests = {
        name: hashlib.sha256(print_module(module).encode()).hexdigest()
        for name, module, _noelle in loaded
    }
    return {
        "import_s": import_s,
        "ready_s": ready_s,
        "digests": digests,
        "spans": spans,
        "counters": dict(STATS.counters),
        "timers": {name: entry[1] for name, entry in STATS.timers.items()},
        "peak_rss_mb": peak_rss_mb(),
        "elapsed_s": time.perf_counter() - _START,
    }


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], sys.argv[2], sys.argv[3] == "1")))
