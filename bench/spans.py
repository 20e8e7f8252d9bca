"""Span recording around the public functions of the nvsim layers.

The program is not instrumented.  `Tracer.install` wraps every public
function of each layer module and rebinds the wrapper wherever an nvsim
module looks the function up (its own module and every module that
imported it by name), so calls between layers and inside a layer are
both seen.  Each span records a name, start, end and parent; spans stay
in memory in flat arrays and are written out once, when the run ends.

`summarize` turns a span file into per-layer numbers: a layer's self
time is the duration of its spans minus the part covered by their child
spans, so the self times of all spans add up to the root span.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from array import array
from collections import Counter

LAYERS = ("config", "cli", "sequences", "noise", "filters", "ensemble", "readout", "fitting", "experiments")
ROOT = "bench.run"


class Tracer:
    """In-memory span log with counters recorded at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.busy_s: Counter = Counter()
        self._local = threading.local()  # per-thread stack of open spans
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, work=None):
        """Wrap fn in a span; work(*args, **kwargs) -> (counter, amount) or None."""
        nid = self._id(name)
        now = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            unit = work(*args, **kwargs) if work is not None else None
            stack = self._stack()
            with self._lock:
                idx = len(self.start)
                self.name.append(nid)
                self.parent.append(stack[-1] if stack else -1)
                self.end.append(0.0)
                self.start.append(now())
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                t = now()
                stack.pop()
                with self._lock:
                    self.end[idx] = t
                    if unit is not None:
                        self.counts[unit[0]] += unit[1]
                        self.busy_s[unit[0]] += t - self.start[idx]

        return wrapper

    def install(self, work_hooks: dict) -> None:
        """Wrap the public functions of every layer where nvsim looks them up."""
        modules = [m for k, m in list(sys.modules.items()) if k == "nvsim" or k.startswith("nvsim.")]
        for layer in LAYERS:
            mod = sys.modules[f"nvsim.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped = self.span(name, obj, work_hooks.get(name))
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is obj:
                            setattr(m, key, wrapped)
                            self._restore.append((m, key, obj))

    def uninstall(self) -> None:
        for m, key, obj in reversed(self._restore):
            setattr(m, key, obj)
        self._restore.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name.tolist(),
                    "parent": self.parent.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                },
                fh,
            )


def summarize(path) -> dict:
    """Per-name and per-layer totals from a span file written by Tracer.dump."""
    with open(path) as fh:
        log = json.load(fh)
    names = log["names"]
    name, parent = log["name"], log["parent"]
    dur = [e - s for s, e in zip(log["start"], log["end"])]
    layer_of = [n.split(".", 1)[0] for n in names]
    child_s = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child_s[p] += dur[i]
    self_s = Counter()
    total_s = Counter()        # inclusive time per function name
    calls = Counter()
    entry_s = Counter()        # inclusive time of calls entering a layer from outside it
    entry_calls = Counter()
    for i, nid in enumerate(name):
        layer = layer_of[nid]
        self_s[layer] += dur[i] - child_s[i]
        total_s[names[nid]] += dur[i]
        calls[names[nid]] += 1
        p = parent[i]
        if p < 0 or layer_of[name[p]] != layer:
            entry_s[layer] += dur[i]
            entry_calls[layer] += 1
    return {
        "self_s": dict(self_s),
        "total_s": dict(total_s),
        "calls": dict(calls),
        "entry_s": dict(entry_s),
        "entry_calls": dict(entry_calls),
    }
