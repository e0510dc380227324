"""Benchmark-side tracing: spans around calls into the program, and a
stack sampler that charges wall time to the program's layers.

Both live outside the program on purpose: the benchmark wraps the public
functions it calls, so the program runs unmodified.  Spans are kept in
memory and written once, as Chrome trace events that Perfetto loads.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

#: The program's packages, as its layering rule (RL004) declares them,
#: plus ``other`` for samples with no ``repro.*`` frame on the stack.
LAYERS = ("sim", "fleet", "rpc", "net", "workloads", "obs", "core",
          "studies", "theory", "serve", "other")


@dataclass
class Span:
    """One timed call: times are seconds on ``time.perf_counter``."""

    name: str
    start_s: float
    end_s: float
    span_id: int
    parent_id: Optional[int]

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


class NullTracer:
    """The untraced pass: same calls, no spans."""

    def call(self, name: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)

    def wrap(self, name: str, fn: Callable) -> Callable:
        return fn


class Tracer(NullTracer):
    """Records a span around every :meth:`call`, nested by call stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.clock(), 0.0, span_id, parent)
        self.spans.append(span)
        self._stack.append(span_id)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span.end_s = self.clock()

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Seconds per span name, minus the time its direct children cover."""
    spans = list(spans)
    child_s: Dict[int, float] = {}
    for span in spans:
        if span.parent_id is not None:
            child_s[span.parent_id] = (child_s.get(span.parent_id, 0.0)
                                       + span.duration_s)
    out: Dict[str, float] = {}
    for span in spans:
        own = span.duration_s - child_s.get(span.span_id, 0.0)
        out[span.name] = out.get(span.name, 0.0) + own
    return out


def chrome_events(spans: Iterable[Span], pid: int, process_name: str,
                  run_id: str, origin_s: float) -> List[dict]:
    """Complete ("X") events in microseconds, one process per workload."""
    events = [{"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
               "args": {"name": process_name}}]
    for span in spans:
        events.append({
            "ph": "X", "name": span.name, "pid": pid, "tid": 0,
            "ts": (span.start_s - origin_s) * 1e6,
            "dur": span.duration_s * 1e6,
            "args": {"span_id": span.span_id, "parent_id": span.parent_id,
                     "run_id": run_id},
        })
    return events


def layer_of(module: str) -> Optional[str]:
    """``repro.core.parallel`` -> ``core``; ``None`` outside the program."""
    if not module.startswith("repro."):
        return None
    layer = module.split(".", 2)[1]
    return layer if layer in LAYERS else "other"


class StackSampler:
    """Samples the creating thread's stack at a fixed rate from a daemon
    thread.

    Each sample is charged to the innermost frame that belongs to a
    ``repro.*`` module, so time in NumPy or the standard library counts
    against the program code that called it.  Samples with no program
    frame (the benchmark itself) count as ``other``.
    """

    #: Samples per second.
    RATE_HZ = 200.0

    def __init__(self):
        self.thread_id = threading.get_ident()  # the creating thread
        self.counts: Counter = Counter()
        #: Set around time the layer split must not include, such as the
        #: benchmark building its own inputs.
        self.paused = False
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def sample_once(self) -> None:
        if self.paused:
            return
        frame = sys._current_frames().get(self.thread_id)
        layer = "other"
        while frame is not None:
            found = layer_of(frame.f_globals.get("__name__", ""))
            if found is not None:
                layer = found
                break
            frame = frame.f_back
        self.counts[layer] += 1

    def _run(self) -> None:
        while not self._stop.wait(1.0 / self.RATE_HZ):
            self.sample_once()

    def __enter__(self) -> "StackSampler":
        self._thread = threading.Thread(target=self._run,
                                        name="bench-sampler", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def shares(self) -> Dict[str, float]:
        """Fraction of samples per layer (every layer present, may be 0)."""
        total = sum(self.counts.values())
        return {layer: (self.counts[layer] / total if total else 0.0)
                for layer in LAYERS}
