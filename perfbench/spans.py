"""Spans recorded from the benchmark's side of each call into ftsolve.

``Tracing`` wraps the public callables of every ftsolve module; each call
records its name, start, end, parent span and op id.  Spans are kept in
flat arrays in memory and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import statistics
import time
from array import array
from collections import defaultdict

ROOT = -1


class Tracer:
    """Name, start, end, parent span and op id of every call, plus
    whether the call raised."""

    def __init__(self, cap: int):
        self.cap = cap
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.raised = array("b")
        self._stack = [ROOT]
        self.op_id = -1

    @property
    def full(self) -> bool:
        return len(self.name) >= self.cap

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.raised.append(1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int, raised: bool):
        self.end[idx] = time.perf_counter_ns()
        self.raised[idx] = raised
        self._stack.pop()

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(nid)
            raised = True
            try:
                out = fn(*args, **kwargs)
                raised = False
            finally:
                tracer.close(idx, raised)
            return out

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write("name,start_ns,end_ns,parent,op,raised\n")
            for i in range(len(self.name)):
                f.write(
                    f"{self.names[self.name[i]]},{self.start[i]},{self.end[i]},"
                    f"{self.parent[i]},{self.op[i]},{self.raised[i]}\n"
                )


class Tracing:
    """Wrappers for the public callables of every module of ``package``:
    every public function, every public method and every validating
    constructor (a class with ``__post_init__``).  Each wrapped function is
    rebound in every module namespace that imported it, so calls between
    modules are traced too.  ``enable`` and ``disable`` swap the wrappers
    in and out, outside any timed region."""

    def __init__(self, tracer: Tracer, package):
        self.tracer = tracer
        mods = [
            importlib.import_module(f"{package.__name__}.{m.name}")
            for m in pkgutil.iter_modules(package.__path__)
            if not m.name.startswith("_")
        ]
        wrapped = {}
        self._swaps = []  # (namespace, attribute, original, wrapper)
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, tracer.wrap(obj, f"{short}.{attr}"))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for mname, meth in list(vars(obj).items()):
                        public = not mname.startswith("_")
                        ctor = mname == "__init__" and "__post_init__" in vars(obj)
                        if inspect.isfunction(meth) and (public or ctor):
                            label = obj.__name__ if ctor else f"{obj.__name__}.{mname}"
                            self._swaps.append((obj, mname, meth, tracer.wrap(meth, f"{short}.{label}")))
        for mod in [package, *mods]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._swaps.append((mod, attr, *wrapped[id(obj)]))

    def enable(self):
        for ns, attr, _, wrapper in self._swaps:
            setattr(ns, attr, wrapper)

    def disable(self):
        for ns, attr, original, _ in self._swaps:
            setattr(ns, attr, original)


def analyse(tracer: Tracer) -> dict:
    """Per-name call counts and median durations (outermost calls only,
    so a function recursing into itself counts once), per-name and
    per-module self time, and per op kind the median duration of the calls
    made directly by ``op.*`` spans that returned without raising."""
    n = len(tracer.name)
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    child = [0] * n
    for i in range(n):
        p = tracer.parent[i]
        if p != ROOT:
            child[p] += dur[i]
    names = tracer.names
    per_name = defaultdict(list)
    self_ns = defaultdict(int)
    raised = defaultdict(int)
    by_parent = defaultdict(list)  # (parent name, name) -> durations
    for i in range(n):
        name = names[tracer.name[i]]
        self_ns[name] += dur[i] - child[i]
        p = tracer.parent[i]
        pname = names[tracer.name[p]] if p != ROOT else None
        if pname != name:
            per_name[name].append(dur[i])
            raised[name] += tracer.raised[i]
            if pname is not None and pname.startswith("op.") and not tracer.raised[i]:
                by_parent[(pname, name)].append(dur[i])
    op_total = sum(sum(v) for k, v in per_name.items() if k.startswith("op."))
    modules = defaultdict(int)
    for name, s in self_ns.items():
        modules[name.split(".", 1)[0]] += s
    return {
        "spans": n,
        "op_total_ns": op_total,
        "names": {
            name: {
                "calls": len(d),
                "median_us": statistics.median(d) / 1e3,
                "self_us": self_ns[name] / 1e3,
                "raised": raised[name],
            }
            for name, d in per_name.items()
        },
        "module_self_frac": {m: s / op_total for m, s in modules.items()} if op_total else {},
        "under_op": {
            f"{p}>{c}": statistics.median(d) / 1e3 for (p, c), d in by_parent.items()
        },
    }
