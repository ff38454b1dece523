"""Grades with an indeterminate element I, matrices over them, and the
corresponding relational-equation pieces.

A grade is either a real in [0,1] or an indeterminate nI with coefficient
n in [0,1].  Two arithmetic modes exist because the source conventions
differ: "absorbing" treats every indeterminate as the unlabeled I that
swallows nonzero reals under min/max; "graded" orders grades by coefficient
and keeps the winning operand's kind.  Mode is an explicit argument on
every public operation.

The operations work on (indet, coeff) array pairs: a boolean array that
marks the indeterminate cells and a float array of coefficients, 0 only in
a real cell.  Graded min/max take the smaller/larger coefficient and the
kind the operands share; across kinds a tie (|Δcoeff| <= TOL) is
indeterminate, otherwise the winner's kind is kept.  Absorbing min/max
treat every nonzero nI as I (coefficient 1), with I ∧ 0 = 0 and I ∨ x = I.
A ``NeutroRelation`` is one read-only pair; ``cells`` and ``[i, j]`` build
``NeutroGrade`` objects only when asked.  Its grid is read by ``as_grid``'s
rules (a 1-d grid is one row), and a string is one cell.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from .grades import TOL, check_grades
from .relations import as_grid

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


def _token(indet, coeff):
    """A cell's token: its coefficient, then I if indeterminate (I alone for 1)."""
    if indet and abs(coeff - 1.0) <= TOL:
        return "I"
    return f"{coeff:.9g}I" if indet else f"{coeff:.9g}"


def neutro_format(g: NeutroGrade):
    return _token(g.is_indet, g.coeff)


def _grade(indet, coeff):
    return NeutroGrade("indet" if indet else "real", coeff)


# ---------------------------------------------------------------------------
# min / max in the two modes, on (indet, coeff) pairs
# ---------------------------------------------------------------------------

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
    return _grade(kind, float(coeff))


def neutro_min(mode, a, b):
    return _scalar(_n_min, mode, a, b)


def neutro_max(mode, a, b):
    return _scalar(_n_max, mode, a, b)


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------

def _leaves(grid, cell):
    """grid with cell applied to each entry that is not a list, tuple or array."""
    if isinstance(grid, (list, tuple, np.ndarray)):
        return [_leaves(v, cell) for v in grid]
    return cell(grid)


def _pair_grid(cells, name="neutrosophic cells"):
    """(indet, coeff) arrays of a grid of cells, each read by as_neutro;
    as_grid checks the shape of the coefficient grid."""
    grades = _leaves(cells, as_neutro)
    coeff = as_grid(_leaves(grades, lambda g: g.coeff), name)
    return np.array(_leaves(grades, lambda g: g.is_indet), bool).reshape(coeff.shape), coeff


def _seal(rel, indet, coeff):
    """rel with the arrays indet and coeff, made read-only, as its state."""
    for name, arr in (("indet", indet), ("coeff", coeff)):
        arr.flags.writeable = False
        object.__setattr__(rel, name, arr)
    return rel


def _json_cell(v):
    """A JSON cell as a grade: a number, a grade token or {"I": c}."""
    if isinstance(v, dict) and v.keys() == {"I"} and type(v["I"]) in (int, float):
        return I(v["I"])
    if type(v) in (int, float, str):  # type, not isinstance: a bool is no grade
        return as_neutro(v)
    raise ValueError(f'neutrosophic JSON cell {v!r} is not a number, a grade token '
                     f'or {{"I": c}}')


def _declared(mode, expect_mode):
    """A file's declared mode, or None: one of MODES, and expect_mode if given."""
    if mode is not None:
        _check_mode(mode)
        if expect_mode not in (None, mode):
            raise ValueError(f"file declares mode {mode!r} but {expect_mode!r} requested")
    return mode


class NeutroRelation:
    """Dense matrix of neutrosophic grades as two read-only arrays: the bool
    ``indet`` marks indeterminate cells, the float ``coeff`` has each coefficient."""

    __slots__ = ("indet", "coeff")

    def __init__(self, cells):
        _seal(self, *_pair_grid(cells))

    def __setattr__(self, name, value):
        raise AttributeError("NeutroRelation is immutable")

    @property
    def rows(self):
        return self.coeff.shape[0]

    @property
    def cols(self):
        return self.coeff.shape[1]

    def _per_cell(self, f):
        """Rows of f(indet, coeff) over the cells, on Python bools and floats."""
        return [[f(k, c) for k, c in zip(krow, crow)]
                for krow, crow in zip(self.indet.tolist(), self.coeff.tolist())]

    @property
    def cells(self):
        """Rows of NeutroGrade, built on each access."""
        return tuple(tuple(row) for row in self._per_cell(_grade))

    def __getitem__(self, idx):
        i, j = idx
        return _grade(bool(self.indet[i, j]), float(self.coeff[i, j]))

    def tokens(self):
        """Rows of the cells' ``neutro_format`` tokens."""
        return self._per_cell(_token)

    def __eq__(self, other):
        if not isinstance(other, NeutroRelation):
            return NotImplemented
        return (self.coeff.shape == other.coeff.shape
                and np.array_equal(self.indet, other.indet)
                and bool(np.all(np.abs(self.coeff - other.coeff) <= TOL)))

    def all_real(self):
        return not self.indet.any()

    def to_real(self):
        if not self.all_real():
            raise ValueError("matrix contains indeterminate cells")
        return self.coeff.copy()

    def __repr__(self):
        return f"NeutroRelation[{'; '.join(' '.join(row) for row in self.tokens())}]"

    # -- codecs -------------------------------------------------------------

    def to_csv(self, mode):
        _check_mode(mode)
        return "\n".join([f"# mode: {mode}"] + [",".join(row) for row in self.tokens()]) + "\n"

    @classmethod
    def from_csv(cls, text, expect_mode=None):
        mode, rows = None, []
        for line in text.strip().splitlines():
            line = line.strip()
            if line.startswith("#"):
                m = re.match(r"#\s*mode:\s*(\w+)", line)
                mode = m.group(1) if m else mode
            elif line:
                rows.append(line.split(","))
        return cls(rows), _declared(mode, expect_mode)

    def to_json(self, mode):
        _check_mode(mode)
        cells = self._per_cell(lambda k, c: {"I": c} if k else c)
        return json.dumps({"mode": mode, "rows": self.rows, "cols": self.cols, "cells": cells})

    @classmethod
    def from_json(cls, text, expect_mode=None):
        data = json.loads(text)
        if not isinstance(data, dict) or "cells" not in data:
            raise ValueError('neutrosophic JSON must be an object with a "cells" grid')
        mode = _declared(data.get("mode"), expect_mode)
        return cls(_leaves(data["cells"], _json_cell)), mode


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
    out = _compose_pairs(mode, P.indet, P.coeff, Q.indet, Q.coeff)
    return _seal(object.__new__(NeutroRelation), *out)


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
    """The arrays of A_N (m×n) and of b_N (1×n; a row or a column reads as
    one row)."""
    bk, bc = (arr.reshape(1, -1) for arr in _pair_grid(b_N, "b"))
    if bc.size != A_N.cols:
        raise ValueError(f"A has {A_N.cols} columns but b has {bc.size} entries")
    return A_N.indet, A_N.coeff, bk, bc


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
        return [_grade(k, c) for k, c in zip(xk.tolist(), xc.tolist())]
    return None


def n_pseudo_char_matrix(A_N: NeutroRelation, b_N):
    """Sign pattern against b: '1'/'0'/'-1' for real-real cells,
    'I'/'0'/'-I' for indeterminate pairs, 'I' for mixed kinds."""
    Ak, Ac, bk, bc = _column_system(A_N, b_N)
    return np.select([Ak != bk, np.abs(Ac - bc) <= TOL, Ac > bc],
                     ["I", "0", np.where(Ak, "I", "1")],
                     np.where(Ak, "-I", "-1")).tolist()
