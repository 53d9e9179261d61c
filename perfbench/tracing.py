"""In-memory span tracer that wraps dimatch's public functions from outside.

Nothing under ``src/`` is edited.  ``Tracer.install`` replaces each public
function of every layer module at *every* module attribute the program
looks it up through (``propagate`` is reached as ``coloring.propagate``,
``solver.propagate`` and ``subsolver.propagate``), plus a few ``Graph``
methods.  A wrapper records a span only while an op (or the set-up) is
open, so the benchmark's own re-checks stay out of the trace.

A span is (name, start, end, parent, op id); op id -1 marks set-up.
Self time is a span's duration minus the durations of its direct
children: calls are single-threaded and properly nested, so the children
never overlap and their sum is exactly the part of the interval they cover.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from time import perf_counter

# Modules that are layers of their own.  cli and compare are not: cli is
# argparse and JSON around the planted op, compare's per-instance check is
# what the exhaustive6 and sampled ops already do.
LAYERS = ("fileio", "graph", "patterns", "coloring", "solver", "subsolver", "oracle", "generate")

# Graph methods worth a span: construction (graph.builds), the component
# split and final verification.  The tiny accessors are left alone, their
# wrapper would cost more than their body.
GRAPH_METHODS = ("__init__", "connected_components", "induced_subgraph", "is_dim", "is_connected")

SETUP_OP = -1


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self.current_op: int | None = None
        self._restore: list[tuple[object, str, object]] = []
        self._by_name: dict[int, list[int]] | None = None
        self.wrappers: dict[str, object] = {}

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        names, starts, ends, parents, ops, stack = (
            self.name, self.start, self.end, self.parent, self.op, self._stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.current_op
            if op is None:
                return fn(*args, **kwargs)
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(op)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()

        return traced

    # -- installation ----------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public function of the layer modules wherever it is bound."""
        modules = [package] + [
            m for name, m in sys.modules.items()
            if name.startswith(package.__name__ + ".") and m is not None
        ]
        by_id: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", obj)
                by_id[id(obj)] = wrapper
                self.wrappers[f"{layer}.{attr}"] = wrapper
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = by_id.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        graph_cls = sys.modules[f"{package.__name__}.graph"].Graph
        for meth in GRAPH_METHODS:
            orig = graph_cls.__dict__[meth]
            self._restore.append((graph_cls, meth, orig))
            setattr(graph_cls, meth, self.wrap(f"graph.Graph.{meth}", orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- derivation ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.name)

    def durations_and_self(self) -> tuple[array, array]:
        dur = array("d", (e - s for s, e in zip(self.start, self.end)))
        self_t = array("d", dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                self_t[p] -= dur[i]
        return dur, self_t

    def _spans_of(self, names) -> list[int]:
        if self._by_name is None:
            self._by_name = {}
            for i, nid in enumerate(self.name):
                self._by_name.setdefault(nid, []).append(i)
        ids = [self._name_ids[n] for n in names if n in self._name_ids]
        return [i for nid in ids for i in self._by_name.get(nid, ())]

    def _below(self, i: int, ids: set[int]) -> bool:
        p = self.parent[i]
        while p >= 0 and self.name[p] not in ids:
            p = self.parent[p]
        return p >= 0

    def outermost_total(self, dur, names, ops: bool = True) -> float:
        """Time inside any of ``names``, counting nested calls among them once.

        ``ops`` selects spans opened during ops, otherwise during set-up.
        """
        ids = {self._name_ids[n] for n in names if n in self._name_ids}
        return sum(
            (dur[i] for i in self._spans_of(names)
            if (self.op[i] >= 0) == ops and not self._below(i, ids)),
            0.0,
        )

    def count(self, names, under: str | None = None) -> int:
        """Spans of ``names`` opened during ops, optionally only below ``under``."""
        anc = {self._name_ids[under]} if under in self._name_ids else set()
        return sum(
            1 for i in self._spans_of(names)
            if self.op[i] >= 0 and (under is None or self._below(i, anc))
        )

    def layer_self(self, self_t: array) -> dict[str, float]:
        """Self time per layer module, over op spans only."""
        layer_of = [n.split(".", 1)[0] for n in self.names]
        out = {layer: 0.0 for layer in LAYERS}
        for i, nid in enumerate(self.name):
            if self.op[i] >= 0:
                out[layer_of[nid]] += self_t[i]
        return out

    def write(self, path: str) -> None:
        """Dump the spans as gzipped tab-separated text, one span a line."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op\tname\tstart\tend\tparent\n")
            names = self.names
            for i in range(len(self.name)):
                fh.write(
                    f"{self.op[i]}\t{names[self.name[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\n"
                )
