"""Spans and counts at relq's module boundaries, recorded from outside.

``Tracer.install`` wraps public functions of the relq modules and rebinds
each wrapper in every relq module that holds the original by name (for
example ``relq.optimize`` imports ``max_solution`` from ``relq.solve``), and
counts calls to the scalar ``TNorm`` methods by wrapping them on the
classes.  ``uninstall`` puts everything back.  Spans stay in memory as
``[name, start, end, parent, op, work]``; ``work`` is the computed
rows·mid·cols of a composition and 0 elsewhere.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

SPANNED = {
    "relations": ("compose",),
    "solve": ("max_solution", "binding_sets", "gavalec_certificate",
              "greatest_solution_relation", "solve"),
    "optimize": ("optimize_linear", "optimize_nonlinear_ga", "optimize_multiobjective"),
    "learn": ("delta_rule_K", "delta_rule_B"),
    "neutro": ("neutro_compose",),
    "products": ("triangle_product_subjects",),
}
SCALAR_METHODS = ("__call__", "residuum", "min_section_solution")
COMPOSE_KINDS = {"MaxMin": "maxmin", "MaxProduct": "maxproduct", "SupT": "supt",
                 "InfImplication": "infimpl"}


def _shape2(R):
    """Shape of a compose operand as compose sees it (a vector is one row)."""
    shape = np.shape(getattr(R, "cells", R))
    return (1, shape[0]) if len(shape) == 1 else shape


def _compose_tag(spec, P, Q, *_, **__):
    (rows, mid), cols = _shape2(P), _shape2(Q)[1]
    return f"relations.compose.{COMPOSE_KINDS.get(type(spec).__name__, 'other')}", \
        rows * mid * cols


def _solve_tag(p, method="lambda", *_, **__):
    return f"solve.solve.{method}", 0


TAGS = {"relations.compose": _compose_tag, "solve.solve": _solve_tag}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.scalar_calls = 0
        self.op_scalar_calls = defaultdict(int)
        self.largest_compose = (0, None)   # (work, (args, kwargs)) of the biggest call
        self._undo = []

    # -- ops ----------------------------------------------------------------

    def begin_op(self, index, name):
        self.op = index
        self._op_scalar_start = self.scalar_calls
        self.stack = [len(self.spans)]
        self.spans.append([f"op.{name}", perf_counter(), 0.0, -1, index, 0])

    def end_op(self):
        self.spans[self.stack[0]][2] = perf_counter()
        self.op_scalar_calls[self.op] += self.scalar_calls - self._op_scalar_start
        self.stack = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        tag = TAGS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label, work = tag(*args, **kwargs) if tag else (name, 0)
            if work > tracer.largest_compose[0]:
                tracer.largest_compose = (work, (args, kwargs))
            rec = [label, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.op, work]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer.stack.pop()
        return wrapper

    def _counted(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.scalar_calls += 1
            return fn(*args, **kwargs)
        return wrapper

    def _rebind(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self):
        relq_modules = [m for key, m in sys.modules.items()
                        if key == "relq" or key.startswith("relq.")]
        for modname, names in SPANNED.items():
            mod = importlib.import_module(f"relq.{modname}")
            for fname in names:
                orig = getattr(mod, fname)
                wrapper = self._span(f"{modname}.{fname}", orig)
                for m in relq_modules:
                    if m.__dict__.get(fname) is orig:
                        self._rebind(m, fname, wrapper)
        grades = importlib.import_module("relq.grades")
        classes = [grades.TNorm]
        for cls in classes:
            classes.extend(cls.__subclasses__())
        for cls in classes:
            for meth in SCALAR_METHODS:
                if meth in vars(cls):
                    self._rebind(cls, meth, self._counted(vars(cls)[meth]))

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- summaries ----------------------------------------------------------

    def totals(self):
        """Per span name: [calls, inclusive seconds, self seconds, work]."""
        child = defaultdict(float)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0, 0.0, 0.0, 0])
        for idx, (name, t0, t1, _, _, work) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child[idx]
            row[3] += work
        return dict(out)

    def calls_before(self, prefix, n_ops):
        """Spans whose name starts with ``prefix`` in ops 0 .. n_ops-1."""
        return sum(1 for s in self.spans if s[0].startswith(prefix) and 0 <= s[4] < n_ops)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\twork\n")
            for name, t0, t1, parent, op, work in self.spans:
                fh.write(f"{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{op}\t{work}\n")
