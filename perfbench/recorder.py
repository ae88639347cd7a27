"""Operation, failure and span bookkeeping for one repetition.

Every call the benchmark makes into galdual goes through ``Recorder.call``,
which counts it, checks its output and, when tracing, records a span named
after the layer metric it feeds.  Spans live in memory as
``[name, start, end, parent_index]`` and are written out after timing ends.
"""

from __future__ import annotations

from time import perf_counter

ROOT = "workload"
CHECK = "bench.check"


class Recorder:
    def __init__(self, traced: bool):
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        self.failed_by_layer: dict = {}
        self.errors: list = []
        self.counts: dict = {}
        self.spans: list = []
        self._open: list = []

    # -- spans ---------------------------------------------------------------

    def _begin(self, name: str):
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, perf_counter(), None, parent])

    def _end(self):
        self.spans[self._open.pop()][2] = perf_counter()

    # -- operations ------------------------------------------------------------

    def fail(self, layer: str, problem: str):
        self.failed += 1
        self.failed_by_layer[layer] = self.failed_by_layer.get(layer, 0) + 1
        if len(self.errors) < 20:
            self.errors.append(f"{layer}: {problem}")

    def count(self, name: str, value: int):
        self.counts[name] = self.counts.get(name, 0) + value

    def call(self, layer: str, fn, *args, check=None, **kwargs):
        """Run one operation; ``check(out)`` returns None or what is wrong.

        A raised error or a failed check counts as one failed operation;
        the result is None after an error, so dependent operations fail too.
        """
        self.attempted += 1
        try:
            if not self.traced:
                out = fn(*args, **kwargs)
                problem = check(out) if check else None
            else:
                self._begin(layer)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self._end()
                self._begin(CHECK)
                try:
                    problem = check(out) if check else None
                finally:
                    self._end()
        except Exception as exc:  # every failure is counted, never dropped
            out, problem = None, f"raised {type(exc).__name__}: {exc}"
        if problem is not None:
            self.fail(layer, problem)
        return out

    def run(self, body) -> float:
        """Run a workload body under the root span; returns its wall time."""
        if self.traced:
            self._begin(ROOT)
        t0 = perf_counter()
        body(self)
        t1 = perf_counter()
        if self.traced:
            self._end()
        return t1 - t0


def same(actual, wanted):
    """A check result: None when equal, else a description of the mismatch."""
    return None if actual == wanted else f"got {actual!r}, expected {wanted!r}"


def first_problem(*problems):
    return next((p for p in problems if p is not None), None)


# -- trace analysis -----------------------------------------------------------


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - c for (_, start, end, _), c in zip(spans, covered)]


def accounting_error(spans):
    """None when the spans nest and their self times add up to the root.

    Children must lie inside their parent and follow one another without
    overlap (one thread), so summing child durations measures exactly the
    part of the parent they cover.
    """
    roots = [i for i, s in enumerate(spans) if s[3] < 0]
    if len(roots) != 1 or roots[0] != 0:
        return f"expected one root span first, found {len(roots)}"
    last_end: dict = {}
    for i, (name, start, end, parent) in enumerate(spans):
        if end is None or end < start:
            return f"span {i} ({name}) is not closed"
        if parent < 0:
            continue
        _, p_start, p_end, _ = spans[parent]
        if start < p_start or end > p_end:
            return f"span {i} ({name}) lies outside its parent"
        if start < last_end.get(parent, p_start):
            return f"span {i} ({name}) overlaps a sibling"
        last_end[parent] = end
    root_s = spans[0][2] - spans[0][1]
    total = sum(self_times(spans))
    if abs(total - root_s) > 1e-6 + 1e-9 * len(spans):
        return f"self times sum to {total:.9f} s, root span is {root_s:.9f} s"
    return None


def layer_seconds(spans) -> dict:
    """Self time per span name; the root's self time is the benchmark's own."""
    out: dict = {}
    for (name, *_), t in zip(spans, self_times(spans)):
        key = "bench.self" if name == ROOT else name
        out[key] = out.get(key, 0.0) + t
    return out
