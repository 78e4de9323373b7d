"""Measurement kit of the end-to-end benchmark.

Statistics (median, nearest-rank percentile), an
in-memory span recorder with self-time derivation and Chrome
trace-event export, before/after deltas of the public
``repro.perf.STATS`` registry, peak-RSS readers, the environment
fingerprint and the calibration loop.  Nothing here imports ``repro``:
the workloads pass the registry in, so the harness test can exercise
this file on synthetic data.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import statistics
import sys
import threading
import time
from contextlib import contextmanager

#: What a metric, workload or unit name may look like (BENCHMARK.json).
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: The calibration slice: a fixed pure-Python loop.  A mark times
#: SLICES_PER_MARK of them and keeps the median.
SLICE_ITERATIONS = 10_000
SLICES_PER_MARK = 5
#: A runner on which one slice takes this long is the reference runner:
#: calibrated seconds are wall seconds on that runner.  (The machine
#: this benchmark was written on takes about 0.5 ms.)
REFERENCE_SLICE_S = 0.0005
#: How often a `Sampler` looks at the runner's speed.
SAMPLE_INTERVAL_S = 0.05


# -- statistics ---------------------------------------------------------------

def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``fraction`` of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    rank = max(1, math.ceil(fraction * len(ordered)))
    return float(ordered[rank - 1])


def geomean(values) -> float:
    values = list(values)
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- spans ----------------------------------------------------------------------

class Span:
    """One timed interval at a layer boundary."""

    __slots__ = ("name", "start", "end", "parent", "thread", "tags",
                 "attributed")

    def __init__(self, name, start, parent, thread, tags):
        self.name = name
        self.start = start
        self.end = start
        #: Index of the causing span in ``Recorder.spans`` (None: a root).
        self.parent = parent
        self.thread = thread
        #: workload / repeat / item and whatever the call site adds.
        self.tags = tags
        #: Seconds inside this span that belong to another layer and
        #: were measured by that layer's own STATS timer (the call is
        #: opaque from outside): {layer metric name: seconds}.
        self.attributed: dict[str, float] = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _NullSpan:
    """What `Recorder.span` hands out while tracing is off."""

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class Recorder:
    """Keeps spans in memory; written out once, when the run ends."""

    def __init__(self, workload: str, tracing: bool, clock: "Clock"):
        self.workload = workload
        self.tracing = tracing
        #: Every timing that becomes an end-to-end metric goes through it.
        self.clock = clock
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        #: Tags every new span inherits (the current repeat).
        self.context: dict = {}

    def span(self, name: str, **tags):
        """Context manager timing one layer call — a no-op unless tracing."""
        if not self.tracing:
            return _NULL_SPAN
        return self._open(name, tags)

    @contextmanager
    def _open(self, name, tags):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        merged = {"workload": self.workload, **self.context, **tags}
        span = Span(
            name, time.perf_counter(), stack[-1] if stack else None,
            threading.get_ident(), merged,
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def add(self, name: str, start: float, end: float, **tags) -> None:
        """Record a span measured elsewhere (a child process, a reply's
        ``meta.seconds``) under the innermost open span of this thread."""
        if not self.tracing:
            return
        stack = getattr(self._local, "stack", None)
        merged = {"workload": self.workload, **self.context, **tags}
        span = Span(name, start, stack[-1] if stack else None,
                    threading.get_ident(), merged)
        span.end = end
        with self._lock:
            self.spans.append(span)


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus what its child spans cover and minus
    the seconds attributed to other layers."""
    own = [span.seconds - sum(span.attributed.values()) for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.seconds
    return own


def layer_of(name: str) -> str:
    """``core.pdg_materialize`` -> ``core`` (layer = src/repro/<module>)."""
    return name.split(".", 1)[0]


def layer_self_seconds(spans: list[Span], keep=None) -> dict[str, float]:
    """Self time summed per layer over the spans ``keep`` accepts,
    attributed seconds included."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        if keep is not None and not keep(span):
            continue
        layer = layer_of(span.name)
        totals[layer] = totals.get(layer, 0.0) + own
        for target, seconds in span.attributed.items():
            layer = layer_of(target)
            totals[layer] = totals.get(layer, 0.0) + seconds
    return totals


def span_seconds(spans: list[Span], name: str, **tags) -> float:
    """Total duration of the spans called ``name`` (matching ``tags``),
    plus what other spans attributed to that name."""
    total = 0.0
    for span in spans:
        if any(span.tags.get(k) != v for k, v in tags.items()):
            continue
        if span.name == name:
            total += span.seconds
        total += span.attributed.get(name, 0.0)
    return total


def median_span_seconds(spans: list[Span], name: str, repeats: int) -> float:
    """`span_seconds` of ``name`` per repeat, median over the repeats."""
    return median(
        span_seconds(spans, name, repeat=index) for index in range(repeats)
    )


def write_chrome_trace(spans: list[Span], path: str, metadata: dict) -> None:
    """Chrome trace-event JSON (load in chrome://tracing or Perfetto)."""
    if not spans:
        origin = 0.0
    else:
        origin = min(span.start for span in spans)
    threads = {}
    events = []
    for index, span in enumerate(spans):
        tid = threads.setdefault(span.thread, len(threads) + 1)
        args = dict(span.tags)
        args["span"] = index
        args["parent"] = span.parent
        if span.attributed:
            args["attributed_s"] = span.attributed
        events.append({
            "name": span.name,
            "cat": layer_of(span.name),
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": span.seconds * 1e6,
            "pid": 1,
            "tid": tid,
            "args": args,
        })
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": metadata}, handle)
        handle.write("\n")


# -- STATS deltas ---------------------------------------------------------------

class StatsDelta:
    """Before/after difference of a ``PerfStats`` registry."""

    def __init__(self, stats):
        self._stats = stats
        self._counters = dict(stats.counters)
        self._timers = {k: v[1] for k, v in stats.timers.items()}

    def counter(self, name: str) -> int:
        return self._stats.counters.get(name, 0) - self._counters.get(name, 0)

    def seconds(self, name: str) -> float:
        entry = self._stats.timers.get(name)
        now = entry[1] if entry is not None else 0.0
        return now - self._timers.get(name, 0.0)


def attribute(span: Span | None, delta: StatsDelta, timer_layers) -> None:
    """Carve the seconds other layers' STATS timers measured out of
    ``span`` (never more than the span lasted); ``timer_layers`` pairs a
    STATS timer with the span name its seconds are reported under."""
    if span is None:
        return
    budget = span.seconds
    for timer, target in timer_layers:
        if layer_of(target) == layer_of(span.name):
            continue
        seconds = min(delta.seconds(timer), budget)
        if seconds > 0.0:
            span.attributed[target] = span.attributed.get(target, 0.0) + seconds
            budget -= seconds


# -- memory ---------------------------------------------------------------------

def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set (``VmHWM``) of this process or of ``pid``."""
    path = f"/proc/{pid or os.getpid()}/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


# -- environment ----------------------------------------------------------------

def scrub_environment(environ=os.environ) -> list[str]:
    """Drop every ``NOELLE_*`` variable; returns the names removed."""
    removed = sorted(name for name in environ if name.startswith("NOELLE_"))
    for name in removed:
        del environ[name]
    return removed


def _slice() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(SLICE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


class Mark:
    """A point in time with the runner's speed measured at it."""

    __slots__ = ("begin", "end", "slice_s")

    def __init__(self):
        self.begin = time.perf_counter()
        self.slice_s = median(_slice() for _ in range(SLICES_PER_MARK))
        self.end = time.perf_counter()


class Clock:
    """Wall time in calibrated seconds.

    The sandbox this benchmark runs in changes speed by 10-25 % for
    seconds at a time (a fixed loop and every workload slow down
    together), which no number of in-run repeats averages out.  So each
    timed interval lies between two marks, and its wall seconds are
    scaled by REFERENCE_SLICE_S over the mean of the two marks' slice
    times: the seconds the interval would take on the reference runner.
    """

    def __init__(self):
        self.raw_s = 0.0
        self.calibrated_s = 0.0
        self.slices: list[float] = []

    def mark(self) -> Mark:
        mark = Mark()
        self.slices.append(mark.slice_s)
        return mark

    def between(self, first: Mark, second: Mark) -> float:
        """Calibrated seconds from the end of ``first`` to the start of
        ``second``."""
        return self.scale(second.begin - first.end, first, second)

    def scale(self, raw: float, first: Mark, second: Mark) -> float:
        """``raw`` wall seconds, measured between the two marks, in
        calibrated seconds."""
        return self.calibrated(raw, (first.slice_s + second.slice_s) / 2)

    def calibrated(self, raw: float, slice_s: float) -> float:
        """``raw`` wall seconds of an interval during which a slice took
        ``slice_s``, in calibrated seconds."""
        seconds = raw * REFERENCE_SLICE_S / slice_s
        self.raw_s += raw
        self.calibrated_s += seconds
        return seconds


class Sampler:
    """The runner's speed while *other processes* do the work (a serve
    round, a child load): a thread times a few slices every
    SAMPLE_INTERVAL_S for as long as the ``with`` block lasts.  Marks
    around such an interval would measure an idle machine."""

    def __init__(self, clock: Clock):
        self._clock = clock
        self._stop = threading.Event()
        self._samples: list[float] = []
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            self._samples.append(median(_slice() for _ in range(3)))
            if self._stop.wait(SAMPLE_INTERVAL_S):
                return

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> bool:
        self._stop.set()
        self._thread.join()
        self._clock.slices.extend(self._samples)
        return False

    @property
    def slice_s(self) -> float:
        return median(self._samples)


class Lap:
    """Consecutive intervals: `lap()` gives the calibrated seconds since
    the previous lap (the calibration itself is not counted)."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self.last = clock.mark()

    def lap(self) -> float:
        mark = self.clock.mark()
        seconds = self.clock.between(self.last, mark)
        self.last = mark
        return seconds


def commit_of(root: str) -> str:
    """HEAD of the checkout, read from ``.git`` (no subprocess); the
    driver's checkout is not a repository, hence ``unknown``."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


def fingerprint(root: str) -> dict:
    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": commit_of(root),
        "loadavg": list(os.getloadavg()),
    }
