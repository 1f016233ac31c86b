"""Outside-in layer tracing of the symkrylov package.

The tracer wraps the public callables of the package's modules (the
layers) from outside, so nothing under src/ carries instrumentation.
Each wrapper records a span: call count, total time, and self time,
which is the total minus the time spent in wrapped callees.  The spans
of one sample form a stack; the caller of each span is kept as a call
edge so counts can be split by caller (probe applies against iteration
applies, for example).

A module that imports a callable by name holds its own reference, so
every reference to the original inside the package is replaced, not
only the defining one.  Methods are wrapped on the class; that has to
happen before a bound method is captured (LinearOperator.from_matrix
binds mat.matvec when the operator is built).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

PACKAGE = "symkrylov"
LAYERS = ("core", "tridiagonalize", "reflect", "precond", "solver")

# callables the per-layer metrics read by name; a name the package no
# longer defines is reported as absent and its metrics read 0
PROBES: Dict[str, Tuple[str, ...]] = {
    "matvec": ("core.SparseMatrix.matvec",),
    "build": ("core.SparseMatrix.from_coo", "core.SparseMatrix.from_dense",
              "core.LinearOperator.from_matrix"),
    "apply": ("core.LinearOperator.__call__",),
    "probe": ("core.probe_symmetry",),
    "step": ("tridiagonalize.complex_symmetric_step",
             "tridiagonalize.hermitian_step",
             "tridiagonalize.skew_hermitian_step",
             "tridiagonalize.skew_symmetric_step",
             "tridiagonalize.precond_step"),
    "sym_ortho": ("reflect.sym_ortho",),
    "precond": ("precond.Identity.solve", "precond.Diagonal.solve",
                "precond.Custom.solve"),
}


class _Target:
    """One wrapped callable and every namespace slot that refers to it."""

    def __init__(self, qual: str, layer: str, fn: Callable, kind: str,
                 owners: List[Tuple[object, str]]):
        self.qual = qual
        self.layer = layer
        self.fn = fn
        self.kind = kind      # "function", "method", "classmethod" or "staticmethod"
        self.owners = owners
        # as stored, so a classmethod is restored as a descriptor
        self.originals = [vars(owner)[attr] for owner, attr in owners]


def _discover() -> List[_Target]:
    modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    namespaces = list(modules.values()) + [importlib.import_module(PACKAGE)]
    targets = []
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                owners = [(ns, attr) for ns in namespaces
                          for attr, val in vars(ns).items() if val is obj]
                targets.append(_Target(f"{layer}.{name}", layer, obj, "function", owners))
            elif inspect.isclass(obj):
                for attr, raw in vars(obj).items():
                    if attr.startswith("_") and attr != "__call__":
                        continue
                    if isinstance(raw, (classmethod, staticmethod)):
                        kind, fn = type(raw).__name__, raw.__func__
                    elif inspect.isfunction(raw):
                        kind, fn = "method", raw
                    else:
                        continue
                    targets.append(_Target(f"{layer}.{name}.{attr}", layer, fn,
                                           kind, [(obj, attr)]))
    return targets


class Tracer:
    """Span recorder over the package's public callables.

    `work` maps a wrapped name to a function of the call's positional
    arguments that returns the bytes the call moves (computed, not
    measured); the tracer sums it per name.
    """

    def __init__(self, work: Optional[Dict[str, Callable]] = None):
        self.targets = _discover()
        known = {t.qual for t in self.targets}
        self.absent = sorted(q for names in PROBES.values() for q in names if q not in known)
        self.layer_of = {t.qual: t.layer for t in self.targets}
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.bytes: Counter = Counter()
        self.edges: Counter = Counter()      # (caller name or None, callee name)
        self._stack: List[list] = []
        self._work = work or {}

    def reset(self) -> None:
        for tally in (self.calls, self.self_s, self.total_s, self.bytes, self.edges):
            tally.clear()

    def _wrap(self, qual: str, fn: Callable) -> Callable:
        stack, calls, edges = self._stack, self.calls, self.edges
        self_s, total_s, nbytes = self.self_s, self.total_s, self.bytes
        work = self._work.get(qual)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [qual, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                calls[qual] += 1
                self_s[qual] += dt - frame[1]
                total_s[qual] += dt
                if parent is not None:
                    parent[1] += dt
                edges[(parent[0] if parent else None, qual)] += 1
                if work is not None:
                    nbytes[qual] += work(*args)

        return span

    def install(self) -> None:
        for t in self.targets:
            span = self._wrap(t.qual, t.fn)
            if t.kind == "classmethod":
                span = classmethod(span)
            elif t.kind == "staticmethod":
                span = staticmethod(span)
            for owner, attr in t.owners:
                setattr(owner, attr, span)

    def uninstall(self) -> None:
        for t in self.targets:
            for (owner, attr), original in zip(t.owners, t.originals):
                setattr(owner, attr, original)
        self._stack.clear()

    # readouts over the spans recorded since the last reset

    def count(self, probe: str) -> int:
        return sum(self.calls[q] for q in PROBES[probe])

    def self_time(self, probe: str) -> float:
        return sum(self.self_s[q] for q in PROBES[probe])

    def total_time(self, probe: str) -> float:
        return sum(self.total_s[q] for q in PROBES[probe])

    def work_bytes(self, probe: str) -> int:
        return sum(self.bytes[q] for q in PROBES[probe])

    def calls_from(self, callers: str, callee: str) -> int:
        """Calls of the `callee` names made directly from a `callers` name."""
        src, dst = set(PROBES[callers]), set(PROBES[callee])
        return sum(c for (a, b), c in self.edges.items() if a in src and b in dst)

    def layer_self_time(self) -> Dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for q, s in self.self_s.items():
            out[self.layer_of[q]] += s
        return out
