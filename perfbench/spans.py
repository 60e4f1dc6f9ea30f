"""Spans around calls into the package, recorded from outside it.

Every public function of model, twoport, regimes, timedomain and fitting,
and `cli.main`, is wrapped by object identity: each attribute of every
`twoport_cmt*` module that refers to one of those function objects is
replaced while the tracer is installed, so calls made inside `cli.main`
are caught too. The other functions of `cli` are not wrapped; their time
is `cli.main`'s self time. `ModelParams.__post_init__` is wrapped to count
constructions.

Leaves called thousands of times per op for a microsecond each (HOT_LEAVES)
are counted but not timed: a timed wrapper costs about 1 us, as much as the
call itself, and would distort every self time around them. Their time is
part of their caller's self time.

Spans are kept in memory as flat arrays (name, parent span, op, start, end)
and written out by `save` when the run ends. Self time is a span's
duration minus the durations of its direct child spans.
"""
from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("model", "twoport", "regimes", "timedomain", "fitting")
HOT_LEAVES = frozenset({"twoport.joint_absorbance", "twoport.wrap_phase"})
PACKAGE = "twoport_cmt"


def traced_functions() -> dict[str, object]:
    """Qualified name -> function object for everything the tracer wraps."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                out[f"{layer}.{name}"] = obj
    out["cli.main"] = sys.modules[f"{PACKAGE}.cli"].main
    return out


def package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    def __init__(self):
        funcs = traced_functions()
        self.names = sorted(funcs)
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.calls = [0] * len(self.names)   # count-only leaves
        self.params_built = 0
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op = -1
        self._stack = [-1]
        self._wrappers = {id(f): (f, self._wrap(n, f)) for n, f in funcs.items()}
        self._saved: list = []

    def _wrap(self, name: str, fn):
        nid = self.name_id[name]
        if name in HOT_LEAVES:
            calls = self.calls

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[nid] += 1
                return fn(*args, **kwargs)
            return counted

        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, stack = self.span_start, self.span_end, self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()
        return timed

    def install(self, op: int) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.op = op
        for mod in package_modules():
            for attr, val in list(vars(mod).items()):
                entry = self._wrappers.get(id(val))
                if entry is not None and entry[0] is val:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, entry[1])
        cls = sys.modules[f"{PACKAGE}.model"].ModelParams
        orig = cls.__dict__["__post_init__"]

        def post_init(obj):
            self.params_built += 1
            orig(obj)
        self._saved.append((cls, "__post_init__", orig))
        setattr(cls, "__post_init__", post_init)

    def remove(self) -> None:
        while self._saved:
            obj, attr, val = self._saved.pop()
            setattr(obj, attr, val)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per traced name: calls, self time and inclusive time (seconds)."""
        nid = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        dur = (np.frombuffer(self.span_end, dtype=np.float64)
               - np.frombuffer(self.span_start, dtype=np.float64))
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        k = len(self.names)
        calls = np.bincount(nid, minlength=k) + np.array(self.calls)
        self_s = np.bincount(nid, weights=dur - child, minlength=k)
        incl_s = np.bincount(nid, weights=dur, minlength=k)
        return {n: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                    "incl_s": float(incl_s[i])}
                for i, n in enumerate(self.names)}

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans of `name` with a span of `ancestor` above them."""
        target, anc = self.name_id[name], self.name_id[ancestor]
        n = 0
        for i in range(len(self.span_name)):
            if self.span_name[i] != target:
                continue
            j = self.span_parent[i]
            while j >= 0 and self.span_name[j] != anc:
                j = self.span_parent[j]
            n += j >= 0
        return n

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int64),
                 op=np.frombuffer(self.span_op, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))
