"""Grades with an indeterminate element I, matrices over them, and the
corresponding relational-equation pieces.

A grade is either a real in [0,1] or an indeterminate nI with coefficient
n in [0,1].  Two arithmetic modes exist because the source conventions
differ: "absorbing" treats every indeterminate as the unlabeled I that
swallows nonzero reals under min/max; "graded" orders grades by coefficient
and keeps the winning operand's kind.  Mode is an explicit argument on
every public operation.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from .grades import TOL, godel

MODES = ("graded", "absorbing")


def _check_mode(mode):
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


@dataclass(frozen=True)
class NeutroGrade:
    kind: str  # "real" | "indet"
    coeff: float

    def __post_init__(self):
        if self.kind not in ("real", "indet"):
            raise ValueError(f"kind must be real/indet, got {self.kind!r}")
        if not -TOL <= self.coeff <= 1 + TOL:
            raise ValueError(f"coefficient {self.coeff!r} outside [0, 1]")
        object.__setattr__(self, "coeff", min(1.0, max(0.0, float(self.coeff))))
        # the two zero representations are one value (bottom)
        if self.coeff == 0.0:
            object.__setattr__(self, "kind", "real")

    @property
    def is_real(self):
        return self.kind == "real"

    @property
    def is_indet(self):
        return self.kind == "indet"

    def __eq__(self, other):
        if isinstance(other, (int, float)):
            other = R(other)
        if not isinstance(other, NeutroGrade):
            return NotImplemented
        return self.kind == other.kind and abs(self.coeff - other.coeff) <= TOL

    def __hash__(self):
        return hash((self.kind, round(self.coeff, 9)))

    def __repr__(self):
        return f"NeutroGrade({neutro_format(self)!r})"


def R(v):
    """Real grade."""
    return NeutroGrade("real", float(v))


def I(v=1.0):
    """Indeterminate grade with coefficient v (default the unlabeled I)."""
    return NeutroGrade("indet", float(v))


def as_neutro(v):
    if isinstance(v, NeutroGrade):
        return v
    if isinstance(v, str):
        return neutro_parse(v)
    return R(v)


# ---------------------------------------------------------------------------
# Token grammar: FLOAT | "I" | FLOAT"I"
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"^\s*(?:(?P<coeff>\d*\.?\d+(?:[eE][-+]?\d+)?)?\s*(?P<i>I)?)\s*$")


def neutro_parse(token):
    m = _TOKEN.match(token)
    if not m or (m.group("coeff") is None and m.group("i") is None):
        bad = len(token) - len(token.lstrip())
        raise ValueError(f"malformed grade token {token!r} at position {bad}")
    coeff = m.group("coeff")
    if m.group("i"):
        return I(1.0 if coeff is None else float(coeff))
    return R(float(coeff))


def _fmt_num(x):
    s = f"{x:.9g}"
    return s


def neutro_format(g: NeutroGrade):
    if g.is_real:
        return _fmt_num(g.coeff)
    if abs(g.coeff - 1.0) <= TOL:
        return "I"
    return _fmt_num(g.coeff) + "I"


# ---------------------------------------------------------------------------
# min / max in the two modes
# ---------------------------------------------------------------------------

def _absorbing_normal(g: NeutroGrade):
    """In absorbing mode every nonzero indeterminate acts as the unlabeled I."""
    if g.is_indet and g.coeff > 0.0:
        return I(1.0)
    return g


def neutro_min(mode, a, b):
    _check_mode(mode)
    a, b = as_neutro(a), as_neutro(b)
    if mode == "absorbing":
        a, b = _absorbing_normal(a), _absorbing_normal(b)
        if a.is_indet or b.is_indet:
            other = b if a.is_indet else a
            if other.is_real and other.coeff == 0.0:
                return R(0.0)
            return I(1.0)
        return R(min(a.coeff, b.coeff))
    # graded: same-kind pairs reduce to plain coefficient comparison
    if a.kind == b.kind:
        return a if a.coeff <= b.coeff else b
    if abs(a.coeff - b.coeff) <= TOL:
        return I(min(a.coeff, b.coeff))
    return a if a.coeff < b.coeff else b


def neutro_max(mode, a, b):
    _check_mode(mode)
    a, b = as_neutro(a), as_neutro(b)
    if mode == "absorbing":
        a, b = _absorbing_normal(a), _absorbing_normal(b)
        if a.is_indet or b.is_indet:
            return I(1.0)
        return R(max(a.coeff, b.coeff))
    # graded: same-kind pairs reduce to plain coefficient comparison
    if a.kind == b.kind:
        return a if a.coeff >= b.coeff else b
    if abs(a.coeff - b.coeff) <= TOL:
        return I(max(a.coeff, b.coeff))
    return a if a.coeff > b.coeff else b


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------

class NeutroRelation:
    """Dense matrix of NeutroGrade cells."""

    __slots__ = ("cells",)

    def __init__(self, cells):
        rows = [[as_neutro(v) for v in row] for row in cells]
        if not rows or not rows[0]:
            raise ValueError("relation must have at least one row and column")
        w = len(rows[0])
        if any(len(r) != w for r in rows):
            raise ValueError("ragged grid")
        object.__setattr__(self, "cells", tuple(tuple(r) for r in rows))

    def __setattr__(self, name, value):
        raise AttributeError("NeutroRelation is immutable")

    @property
    def rows(self):
        return len(self.cells)

    @property
    def cols(self):
        return len(self.cells[0])

    def __getitem__(self, idx):
        i, j = idx
        return self.cells[i][j]

    def __eq__(self, other):
        if not isinstance(other, NeutroRelation):
            return NotImplemented
        return self.cells == other.cells

    def all_real(self):
        return all(g.is_real for row in self.cells for g in row)

    def to_real(self):
        if not self.all_real():
            raise ValueError("matrix contains indeterminate cells")
        return np.array([[g.coeff for g in row] for row in self.cells])

    def __repr__(self):
        body = "; ".join(
            " ".join(neutro_format(g) for g in row) for row in self.cells
        )
        return f"NeutroRelation[{body}]"

    # -- codecs -------------------------------------------------------------

    def to_csv(self, mode):
        _check_mode(mode)
        lines = [f"# mode: {mode}"]
        for row in self.cells:
            lines.append(",".join(neutro_format(g) for g in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text, expect_mode=None):
        mode = None
        rows = []
        for line in text.strip().splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                m = re.match(r"#\s*mode:\s*(\w+)", line)
                if m:
                    mode = m.group(1)
                continue
            rows.append([neutro_parse(tok) for tok in line.split(",")])
        if expect_mode is not None and mode is not None and mode != expect_mode:
            raise ValueError(f"file declares mode {mode!r} but {expect_mode!r} requested")
        return cls(rows), mode

    def to_json(self, mode):
        _check_mode(mode)
        cells = [
            [g.coeff if g.is_real else {"I": g.coeff} for g in row]
            for row in self.cells
        ]
        return json.dumps({"mode": mode, "rows": self.rows, "cols": self.cols, "cells": cells})

    @classmethod
    def from_json(cls, text, expect_mode=None):
        data = json.loads(text)
        mode = data.get("mode")
        if expect_mode is not None and mode is not None and mode != expect_mode:
            raise ValueError(f"file declares mode {mode!r} but {expect_mode!r} requested")
        rows = [
            [I(v["I"]) if isinstance(v, dict) else R(v) for v in row]
            for row in data["cells"]
        ]
        return cls(rows), mode


def neutro_compose(mode, P: NeutroRelation, Q: NeutroRelation) -> NeutroRelation:
    """Max-min matrix composition under the selected mode."""
    _check_mode(mode)
    if P.cols != Q.rows:
        raise ValueError(f"dimension mismatch: {P.rows}x{P.cols} vs {Q.rows}x{Q.cols}")
    out = []
    for i in range(P.rows):
        row = []
        for k in range(Q.cols):
            acc = None
            for j in range(P.cols):
                term = neutro_min(mode, P[i, j], Q[j, k])
                acc = term if acc is None else neutro_max(mode, acc, term)
            row.append(acc)
        out.append(row)
    return NeutroRelation(out)


# ---------------------------------------------------------------------------
# Maximum solution of A_N ⊗ x = b_N
# ---------------------------------------------------------------------------

def _neutro_at(a: NeutroGrade, b: NeutroGrade) -> NeutroGrade:
    """Greatest-solution operator: 1 when a <= b, b when a > b, I for
    incomparable (cross-kind) pairs."""
    if a.kind == b.kind:
        if a.is_real:
            return R(godel(a.coeff, b.coeff))
        if a.coeff <= b.coeff + TOL:
            return R(1.0)
        return b
    return I(1.0)


def nre_max_solution(A_N: NeutroRelation, b_N, mode):
    """Greatest-solution candidate of the column system A_N ⊗ x = b_N;
    None when the composition check fails."""
    _check_mode(mode)
    b_N = [as_neutro(v) for v in b_N]
    if len(b_N) != A_N.cols:
        raise ValueError(f"A has {A_N.cols} columns but b has {len(b_N)} entries")
    x_hat = []
    for i in range(A_N.rows):
        acc = None
        for j in range(A_N.cols):
            term = _neutro_at(A_N[i, j], b_N[j])
            acc = term if acc is None else neutro_min(mode, acc, term)
        x_hat.append(acc)
    # verify x ∘ A = b
    xrel = NeutroRelation([x_hat])
    image = neutro_compose(mode, xrel, A_N)
    if all(image[0, j] == b_N[j] for j in range(A_N.cols)):
        return x_hat
    return None


def n_pseudo_char_matrix(A_N: NeutroRelation, b_N):
    """Sign pattern against b: '1'/'0'/'-1' for real-real cells,
    'I'/'0'/'-I' for indeterminate pairs, 'I' for mixed kinds."""
    b_N = [as_neutro(v) for v in b_N]
    out = []
    for i in range(A_N.rows):
        row = []
        for j in range(A_N.cols):
            a, b = A_N[i, j], b_N[j]
            if a.kind != b.kind:
                row.append("I")
            elif abs(a.coeff - b.coeff) <= TOL:
                row.append("0")
            elif a.coeff > b.coeff:
                row.append("1" if a.is_real else "I")
            else:
                row.append("-1" if a.is_real else "-I")
        out.append(row)
    return out
