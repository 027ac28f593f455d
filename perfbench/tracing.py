"""Benchmark-side spans around calls into the program, with layer self times.

The benchmark records its own spans (name, start, end, parent) around
every call it makes into a layer of ``repro``.  Where the call is
instrumented by :mod:`repro.core.telemetry`, the span resets the
program's registry before the call and folds the snapshot taken after it
in as the span's children, so one tree covers benchmark and program
spans.  Nothing here adds a span inside the program.

Self time of a span is its duration minus the time its children cover.
Spans recorded on the stream engine's thread lanes have no parent in the
program's tree (a lane starts with an empty span stack); they count in
the per-name totals but neither in self times nor against an enclosing
span, because they run beside the blocking path rather than on it: the
calling thread's wait for its lanes is ``stream.sweep`` self time.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

#: Span-name prefix -> layer reported in the per-layer metrics.
LAYER_OF_PREFIX = {
    "cli": "cli",
    "runner": "runner",
    "batch": "batch",
    "stream": "stream",
    "scalar": "scalar",
    "netsim": "netcore",
    "netcore": "netcore",
}

#: Layers whose root spans run on the calling thread: the runner's entry
#: spans and netsim's flat phase spans.  Other roots (``stream.*``) are
#: recorded on thread lanes.
CALLING_THREAD_LAYERS = ("runner", "netcore")

#: Layers whose self time is reported (``<layer>.self_s``).
SELF_TIME_LAYERS = ("cli", "runner", "batch", "stream", "scalar", "netcore")


def layer_of(name: str) -> str:
    """Layer a span name belongs to (its first dotted component)."""
    return LAYER_OF_PREFIX.get(name.split(".", 1)[0], "bench")


class Tracer:
    """In-memory span recorder, written out with the run's record.

    ``spans`` keeps every benchmark span as ``(name, start, seconds,
    parent index)``; program spans arrive pre-aggregated by name.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.totals: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.bytes: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.self_time: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []  # [covered seconds, index]
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, program: bool = False):
        """Time ``name``; with ``program``, fold the program's telemetry in.

        Yields a dict; a caller that ran an uninstrumented program call
        (a subprocess) may put that process's own telemetry snapshot
        under ``"snapshot"`` to have it folded in the same way.
        """
        from repro.core import telemetry

        if program:
            telemetry.reset()
        parent = int(self._stack[-1][1]) if self._stack else -1
        frame = [0.0, len(self.spans)]
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(frame)
        slot: dict = {}
        start = time.perf_counter()
        try:
            yield slot
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            snap = telemetry.snapshot() if program else slot.get("snapshot")
            if snap:
                frame[0] += self._fold(snap)
            self.spans[frame[1]] = (
                name, round(start - self._origin, 6), round(duration, 6), parent
            )
            self.totals[name] += duration
            self.calls[name] += 1
            self.self_time[layer_of(name)] += max(0.0, duration - frame[0])
            if self._stack:
                self._stack[-1][0] += duration

    def _fold(self, snap: dict) -> float:
        """Fold one telemetry snapshot; return the time its roots cover
        inside the enclosing benchmark span (lane roots excluded)."""
        for name, value in snap.get("counters", {}).items():
            self.counters[name] += int(value)
        covered = 0.0
        for name, node in snap.get("spans", {}).items():
            on_path = layer_of(name) in CALLING_THREAD_LAYERS
            seconds = self._fold_node(name, node, on_path)
            if on_path:
                covered += seconds
        return covered

    def _fold_node(self, name: str, node: dict, on_path: bool) -> float:
        """Add one span subtree to the totals; self times only count on
        the calling thread, where they add up to the blocking path."""
        seconds = float(node["seconds"])
        children = node.get("children", {})
        inner = sum(self._fold_node(k, v, on_path) for k, v in children.items())
        self.totals[name] += seconds
        self.calls[name] += int(node.get("calls", 0))
        self.bytes[name] += int(node.get("bytes", 0))
        if on_path:
            self.self_time[layer_of(name)] += max(0.0, seconds - inner)
        return seconds

    def total(self, *names: str) -> float:
        """Summed seconds of every span with one of ``names``."""
        return sum(self.totals.get(name, 0.0) for name in names)
