"""In-memory span tracer installed from outside the program.

The tracer replaces public names of `mmadapt` modules with wrappers that
record one span per call: its name, start, end and parent span. Every
module that binds a name with `from .x import y` holds its own reference,
so each such binding is wrapped separately. A name that no longer exists
is an error that names it; it is never skipped.

Spans stay in memory until `save` writes them at the end of a run. A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

_clock = time.perf_counter


class MissingNameError(RuntimeError):
    """A public name the tracer must wrap does not exist."""


def qualified_name(owner, attr: str) -> str:
    """`mmadapt.trainer.grad` for a module, `mmadapt.trainer.AdamW.step` for a class."""
    if isinstance(owner, type):
        return f"{owner.__module__}.{owner.__qualname__}.{attr}"
    return f"{owner.__name__}.{attr}"


def lookup(owner, attr: str):
    """`owner.attr` as defined on the module or class itself; raises
    `MissingNameError` naming it when it no longer exists."""
    if attr not in vars(owner):
        raise MissingNameError(f"{qualified_name(owner, attr)} no longer exists")
    return vars(owner)[attr]


class NullTracer:
    """Stands in for `Tracer` when tracing is off: spans cost one call."""

    def span(self, name: str):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, name id, child seconds, start]
        self.total: dict[int, float] = defaultdict(float)
        self.self_time: dict[int, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.calls_under: Counter = Counter()  # (name id, parent name id) -> calls
        self.counters: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> list:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [idx, nid, 0.0, _clock()]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = _clock()
        idx, nid, child, start = frame
        self._stack.pop()
        dur = end - start
        self.span_start[idx] = start
        self.span_end[idx] = end
        self.total[nid] += dur
        self.self_time[nid] += dur - child
        self.calls[nid] += 1
        if self._stack:
            parent = self._stack[-1]
            parent[2] += dur
            self.calls_under[(nid, parent[1])] += 1

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(frame)

    # -- wrappers ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        """Record a `name` span around every call of `owner.attr`.

        `hook(args, kwargs, result)` runs after the call inside a
        `trace.hook` span, so its cost is kept out of every layer's time.
        """
        orig = lookup(owner, attr)
        nid = self._id(name)
        hook_id = self._id("trace.hook")

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            frame = self._open(nid)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(frame)
            if hook is not None:
                hframe = self._open(hook_id)
                try:
                    hook(args, kwargs, result)
                finally:
                    self._close(hframe)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------

    def total_s(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.total[nid]

    def self_s(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_time[nid]

    def n_calls(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def n_calls_under(self, name: str, parent: str) -> int:
        if name not in self._ids or parent not in self._ids:
            return 0
        return self.calls_under[(self._ids[name], self._ids[parent])]

    def durations(self, name: str) -> np.ndarray:
        nid = self._ids.get(name)
        if nid is None:
            return np.zeros(0)
        names = np.frombuffer(self.span_name, dtype=np.int32)
        sel = names == nid
        return np.frombuffer(self.span_end)[sel] - np.frombuffer(self.span_start)[sel]

    def summary(self) -> dict[str, dict[str, float]]:
        return {
            name: {"calls": self.calls[nid], "total_s": self.total[nid], "self_s": self.self_time[nid]}
            for nid, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start),
            end=np.frombuffer(self.span_end),
        )
