"""In-memory span recording around a program's public functions.

A :class:`Recorder` wraps functions with timing wrappers.  Each call
records one span: name, start, end, parent span (the wrapped call it
ran inside) and an optional size (actions in a batch, rulings in a
response).  Spans live in flat ``array`` columns, so a traced run of
hundreds of thousands of calls stays small, and are written out once
when the program ends.  :class:`Spans` and :func:`layer_times` read them
back.

A span's self time is its duration minus the durations of its direct
children, so the self times of one call tree add up to its root.
"""

from __future__ import annotations

import json
import time
from array import array
from collections.abc import Callable
from pathlib import Path

clock = time.perf_counter


class Recorder:
    """Spans and call counts of one traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.size = array("i")
        #: Thread CPU seconds of the spans that asked for it, by index.
        self.cpu: dict[int, float] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        """The index of ``name`` in the span name table."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int, size: int = 0) -> int:
        index = len(self.start)
        stack = self._stack
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.size.append(size)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = clock()
        self._stack.pop()

    def wrap(
        self,
        name: str,
        function: Callable,
        size: Callable[..., int] | None = None,
        thread_cpu: bool = False,
    ) -> Callable:
        """``function`` recording one span per call.

        ``size(*args)`` gives the span's size; ``thread_cpu`` also
        records the calling thread's CPU time, so waiting inside the call
        (an fsync) shows as wall time minus CPU.
        """
        name_id = self.name_id(name)
        open_span, close_span = self.open, self.close

        if thread_cpu:

            def wrapper(*args, **kwargs):
                cpu = time.thread_time()
                index = open_span(name_id)
                try:
                    return function(*args, **kwargs)
                finally:
                    close_span(index)
                    self.cpu[index] = time.thread_time() - cpu

        elif size is not None:

            def wrapper(*args, **kwargs):
                index = open_span(name_id, size(*args))
                try:
                    return function(*args, **kwargs)
                finally:
                    close_span(index)

        else:

            def wrapper(*args, **kwargs):
                index = open_span(name_id)
                try:
                    return function(*args, **kwargs)
                finally:
                    close_span(index)

        wrapper.__wrapped__ = function
        return wrapper

    def counter(self, name: str, function: Callable) -> Callable:
        """``function`` counting its calls, with no span (for calls too
        frequent and too cheap to time without distorting them)."""
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        wrapper.__wrapped__ = function
        return wrapper

    def dump(self, path: Path, extra: dict) -> None:
        """Write ``path`` (JSON header) and ``path.bin`` (the columns)."""
        columns = [self.name, self.start, self.end, self.parent, self.size]
        with open(f"{path}.bin", "wb") as handle:
            for column in columns:
                column.tofile(handle)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "cpu": {str(k): v for k, v in self.cpu.items()},
            "counts": self.counts,
            **extra,
        }
        Path(path).write_text(json.dumps(header))


class Spans:
    """Spans read back from a :meth:`Recorder.dump`."""

    def __init__(self, path: Path) -> None:
        self.header = json.loads(Path(path).read_text())
        count = self.header["spans"]
        self.names: list[str] = self.header["names"]
        self.cpu = {int(k): v for k, v in self.header["cpu"].items()}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.size = array("i")
        with open(f"{path}.bin", "rb") as handle:
            for column in (
                self.name, self.start, self.end, self.parent, self.size
            ):
                column.fromfile(handle, count)


def layer_times(
    spans: Spans, window: tuple[float, float]
) -> dict[str, dict[str, float]]:
    """Per span name, over spans inside ``window``: ``calls``, ``busy``
    (summed durations), ``self`` (minus direct children), ``size``
    (summed sizes) and ``wait`` (wall minus thread CPU, where recorded).
    """
    low, high = window
    inside = [
        i for i in range(len(spans.start))
        if spans.start[i] >= low and spans.end[i] <= high
    ]
    child_time: dict[int, float] = {}
    for i in inside:
        parent = spans.parent[i]
        if parent >= 0:
            child_time[parent] = (
                child_time.get(parent, 0.0) + spans.end[i] - spans.start[i]
            )
    layers: dict[str, dict[str, float]] = {}
    for i in inside:
        entry = layers.setdefault(
            spans.names[spans.name[i]],
            {"calls": 0, "busy": 0.0, "self": 0.0, "size": 0, "wait": 0.0},
        )
        duration = spans.end[i] - spans.start[i]
        entry["calls"] += 1
        entry["busy"] += duration
        entry["self"] += duration - child_time.get(i, 0.0)
        entry["size"] += spans.size[i]
        if i in spans.cpu:
            entry["wait"] += max(0.0, duration - spans.cpu[i])
    return layers
