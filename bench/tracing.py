"""Span tracing of trinedisc's public functions, installed from outside.

``Tracer.install`` replaces every public function of each layer module by
a wrapper, at every import site inside the package: the defining module,
each sibling module that imported it by name, and the package namespace.
No source file changes, and ``uninstall`` puts the originals back.

A span is one call: its name, start, end, the span that caused it (the
enclosing call, or the benchmark operation) and the operation it belongs
to.  Spans live in flat arrays until ``summary`` turns them into
per-layer counts and self times; self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

#: Layer modules, in the order their metrics are reported.  ``errors``
#: holds only exception classes, so it has no spans.
PACKAGE = "trinedisc"
LAYERS = ("trine", "qubit", "min_error", "max_confidence", "oracle", "simulate", "cli")

#: Calls whose arguments feed computed counts.
_RECORDED_ARGS = {
    "oracle.brute_force_min_error": ("resolution", "refinements"),
    "oracle.brute_force_max_confidence": ("resolution", "refinements"),
    "simulate.estimate_success": ("shots",),
    "simulate.estimate_confidence": ("shots",),
}


def public_functions(module) -> list[str]:
    """Names the layer exports: ``__all__`` where defined, else ``main``.

    The CLI exports no ``__all__``; its entry point ``main`` is the one
    public call, so its self time covers argparse, row assembly and
    CSV/JSON writing.
    """
    names = getattr(module, "__all__", None) or ["main"]
    return [n for n in names if inspect.isfunction(getattr(module, n, None))]


class _CountingGenerator:
    """Forwards to a numpy Generator, counting the variates it returns."""

    def __init__(self, generator, counter: Counter):
        self._generator = generator
        self._counter = counter

    def __getattr__(self, name):
        attr = getattr(self._generator, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            out = attr(*args, **kwargs)
            self._counter["draws"] += int(np.size(out))
            return out

        return counted


class _CountingRandom:
    def __init__(self, counter: Counter):
        self._counter = counter

    def __getattr__(self, name):
        return getattr(np.random, name)

    def Generator(self, bit_generator):  # noqa: N802 - mirrors numpy.random
        return _CountingGenerator(np.random.Generator(bit_generator), self._counter)

    def default_rng(self, seed=None):
        return _CountingGenerator(np.random.default_rng(seed), self._counter)


class _CountingNumpy:
    """Stands in for ``numpy`` inside ``trinedisc.simulate`` only."""

    def __init__(self, counter: Counter):
        self.random = _CountingRandom(counter)

    def __getattr__(self, name):
        return getattr(np, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.failed = array("b")
        self.args: list[tuple[str, dict]] = []
        self.rng = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._op_id = -1

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.failed.append(0)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        record = _RECORDED_ARGS.get(name)
        signature = inspect.signature(fn) if record else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if record:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.args.append((name, {k: bound.arguments[k] for k in record}))
            idx = self._open(nid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.failed[idx] = 1
                raise
            finally:
                self.end[idx] = perf_counter()
                self.start[idx] = t0
                self._stack.pop()

        return traced

    @contextmanager
    def operation(self, name: str):
        """One benchmark operation: the root span its calls hang from."""
        self._op_id += 1
        idx = self._open(self._name_id(f"bench.{name}"))
        t0 = perf_counter()
        try:
            yield
        finally:
            self.end[idx] = perf_counter()
            self.start[idx] = t0
            self._stack.pop()

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        modules = [sys.modules[PACKAGE]] + [sys.modules[f"{PACKAGE}.{m}"] for m in LAYERS]
        wrapped = {}
        for layer, module in zip(LAYERS, modules[1:]):
            for fname in public_functions(module):
                original = getattr(module, fname)
                wrapped[id(original)] = (original, self._wrap(f"{layer}.{fname}", original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    self._patch(module, attr, wrapped[id(value)][1])
        self._patch(sys.modules[f"{PACKAGE}.simulate"], "np", _CountingNumpy(self.rng))

    def _patch(self, module, attr: str, value) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- summarising -----------------------------------------------------

    def summary(self) -> dict:
        """Per-function ``calls``, ``self_s`` and ``errors``, keyed by span name."""
        names = np.frombuffer(self.name_of, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=own, minlength=k)
        errors = np.bincount(names, weights=np.frombuffer(self.failed, dtype=np.int8), minlength=k)
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "errors": int(errors[i])}
            for i, name in enumerate(self.names)
        }
