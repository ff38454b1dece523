"""Grades with an indeterminate element I, matrices over them, and the
corresponding relational-equation pieces.

A grade is either a real in [0,1] or an indeterminate nI with coefficient
n in [0,1].  Two arithmetic modes exist because the source conventions
differ: "absorbing" treats every indeterminate as the unlabeled I that
swallows nonzero reals under min/max; "graded" orders grades by coefficient
and keeps the winning operand's kind.  Mode is an explicit argument on
every public operation.

The operations work on (indet, coeff) array pairs: a boolean array that
marks the indeterminate cells and a float array of coefficients.  A
coefficient of 0 is always real.  Graded min/max take the smaller/larger
coefficient and the kind the operands share; across kinds a tie
(|Δcoeff| <= TOL) is indeterminate, otherwise the winner's kind is kept.
Absorbing min/max treat every nonzero nI as I (coefficient 1), with
I ∧ 0 = 0 and I ∨ x = I.  ``NeutroRelation`` keeps its cells as
``NeutroGrade`` objects; they are converted to pairs and back only at the
boundary of an operation.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from .grades import TOL, check_grades

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
        object.__setattr__(self, "coeff", check_grades(self.coeff, "coefficient"))
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
        # a grade is never equal to a plain number: no hash could agree with
        # a TOL-wide equality against floats
        if not isinstance(other, NeutroGrade):
            return NotImplemented
        return self.kind == other.kind and abs(self.coeff - other.coeff) <= TOL

    def __hash__(self):
        # equal grades may differ by TOL in coeff, so only the kind is hashed
        return hash(self.kind)

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


def neutro_format(g: NeutroGrade):
    if g.is_real:
        return f"{g.coeff:.9g}"
    if abs(g.coeff - 1.0) <= TOL:
        return "I"
    return f"{g.coeff:.9g}I"


# ---------------------------------------------------------------------------
# min / max in the two modes, on (indet, coeff) pairs
# ---------------------------------------------------------------------------

def _pairs(grades):
    """(indet, coeff) arrays of a nested list of grades."""
    return (np.array([[g.is_indet for g in row] for row in grades], dtype=bool),
            np.array([[g.coeff for g in row] for row in grades], dtype=float))


def _grades(indet, coeff):
    """Nested list of grades from (indet, coeff) arrays."""
    return [[NeutroGrade("indet" if k else "real", c) for k, c in zip(krow, crow)]
            for krow, crow in zip(indet.tolist(), coeff.tolist())]


def _graded_kind(ka, ca, kb, cb, a_wins, coeff):
    """Kind of a graded min/max: the kind both share, else indeterminate on
    a tie and the winner's kind otherwise; a zero coefficient is real."""
    tie = np.abs(ca - cb) <= TOL
    return np.where(ka == kb, ka, tie | np.where(a_wins, ka, kb)) & (coeff > 0.0)


def _n_min(mode, ka, ca, kb, cb):
    coeff = np.minimum(ca, cb)
    if mode == "absorbing":
        kind = (ka | kb) & (ca != 0.0) & (cb != 0.0)
        return kind, np.where(kind, 1.0, coeff)
    return _graded_kind(ka, ca, kb, cb, ca < cb, coeff), coeff


def _n_max(mode, ka, ca, kb, cb):
    coeff = np.maximum(ca, cb)
    if mode == "absorbing":
        kind = ka | kb
        return kind, np.where(kind, 1.0, coeff)
    return _graded_kind(ka, ca, kb, cb, ca > cb, coeff), coeff


def _scalar(rule, mode, a, b):
    _check_mode(mode)
    a, b = as_neutro(a), as_neutro(b)
    kind, coeff = rule(mode, a.is_indet, a.coeff, b.is_indet, b.coeff)
    return NeutroGrade("indet" if kind else "real", float(coeff))


def neutro_min(mode, a, b):
    return _scalar(_n_min, mode, a, b)


def neutro_max(mode, a, b):
    return _scalar(_n_max, mode, a, b)


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


def _compose_pairs(mode, Pk, Pc, Qk, Qc):
    """Max-min composition of pair arrays, folded over the middle index in
    order (graded ties make the fold order-dependent)."""
    acc = _n_min(mode, Pk[:, :1], Pc[:, :1], Qk[:1], Qc[:1])
    for j in range(1, Pk.shape[1]):
        term = _n_min(mode, Pk[:, j:j + 1], Pc[:, j:j + 1], Qk[j:j + 1], Qc[j:j + 1])
        acc = _n_max(mode, *acc, *term)
    return acc


def neutro_compose(mode, P: NeutroRelation, Q: NeutroRelation) -> NeutroRelation:
    """Max-min matrix composition under the selected mode."""
    _check_mode(mode)
    if P.cols != Q.rows:
        raise ValueError(f"dimension mismatch: {P.rows}x{P.cols} vs {Q.rows}x{Q.cols}")
    return NeutroRelation(_grades(*_compose_pairs(mode, *_pairs(P.cells), *_pairs(Q.cells))))


# ---------------------------------------------------------------------------
# Maximum solution of A_N ⊗ x = b_N
# ---------------------------------------------------------------------------

def _neutro_at(ka, ca, kb, cb):
    """Greatest-solution operator: 1 when a <= b, b when a > b, I for
    incomparable (cross-kind) pairs."""
    le = ca <= cb + TOL
    cross = ka != kb
    return cross | (kb & ~le), np.where(le | cross, 1.0, cb)


def _column_system(A_N: NeutroRelation, b_N):
    """Pair arrays of A_N (m×n) and of b_N (1×n)."""
    b_N = [as_neutro(v) for v in b_N]
    if len(b_N) != A_N.cols:
        raise ValueError(f"A has {A_N.cols} columns but b has {len(b_N)} entries")
    return _pairs(A_N.cells) + _pairs([b_N])


def nre_max_solution(A_N: NeutroRelation, b_N, mode):
    """Greatest-solution candidate of the column system A_N ⊗ x = b_N;
    None when the composition check fails."""
    _check_mode(mode)
    Ak, Ac, bk, bc = _column_system(A_N, b_N)
    tk, tc = _neutro_at(Ak, Ac, bk, bc)
    xk, xc = tk[:, 0], tc[:, 0]
    for j in range(1, A_N.cols):
        xk, xc = _n_min(mode, xk, xc, tk[:, j], tc[:, j])
    # verify x ∘ A = b
    ik, ic = _compose_pairs(mode, xk[None], xc[None], Ak, Ac)
    if np.all((ik == bk) & (np.abs(ic - bc) <= TOL)):
        return _grades(xk[None], xc[None])[0]
    return None


def n_pseudo_char_matrix(A_N: NeutroRelation, b_N):
    """Sign pattern against b: '1'/'0'/'-1' for real-real cells,
    'I'/'0'/'-I' for indeterminate pairs, 'I' for mixed kinds."""
    Ak, Ac, bk, bc = _column_system(A_N, b_N)
    return np.select([Ak != bk, np.abs(Ac - bc) <= TOL, Ac > bc],
                     ["I", "0", np.where(Ak, "I", "1")],
                     np.where(Ak, "-I", "-1")).tolist()
