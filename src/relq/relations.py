"""Dense fuzzy relations: compositions, joins, cuts, structural properties.

A Relation is a thin immutable wrapper around a float matrix with all cells
in [0, 1].  Compositions are parameterized: max-min, max-product, sup-t for
an arbitrary t-norm, and inf-implication.  Two array kernels compute every
composition: ``sup_t_compose`` (max over j of t(P[i,j], Q[j,k]), through
the t-norm's ``apply``) and ``inf_implication_compose`` (min over j of
imp(P[i,j], Q[j,k]); with a residuum as imp this is the Sanchez greatest
solution).  Both work on a block of rows of P and a slice of the middle
axis at a time, so a temporary holds at most max(``CHUNK_CELLS``, cols)
cells; a call that fits in one block is one op and one reduce.
``compose`` checks a raw operand in place and copies it only to clamp a
cell in the TOL band; a Relation copies any array its caller can still
write.
"""

from __future__ import annotations

import json

import numpy as np

from .grades import MIN, PRODUCT, TOL, TNorm, check_grades, godel

__all__ = [
    "Relation", "MaxMin", "MaxProduct", "SupT", "InfImplication",
    "composition_by_name", "compose", "sup_t_compose", "inf_implication_compose",
    "relational_join", "transpose",
    "alpha_cut", "relation_properties", "transitive_closure", "identity",
]


class Relation:
    """Immutable dense matrix of grades in [0, 1]."""

    __slots__ = ("cells",)

    def __init__(self, cells):
        arr = as_grid(cells)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"relation must be a 2-d grid, got shape {arr.shape}")
        # as_grid may return the caller's array or a view of it: freeze a copy
        _seal(self, arr.copy() if arr is cells or arr.base is not None else arr)

    def __setattr__(self, name, value):
        raise AttributeError("Relation is immutable")

    @property
    def rows(self):
        return self.cells.shape[0]

    @property
    def cols(self):
        return self.cells.shape[1]

    @property
    def shape(self):
        return self.cells.shape

    def __getitem__(self, idx):
        return self.cells[idx]

    def __eq__(self, other):
        if not isinstance(other, Relation):
            return NotImplemented
        return self.shape == other.shape and bool(np.all(np.abs(self.cells - other.cells) <= TOL))

    def __repr__(self):
        return f"Relation({self.cells.tolist()!r})"

    # -- codecs -------------------------------------------------------------

    def to_csv(self):
        return "\n".join(
            ",".join(repr(float(v)) for v in row) for row in self.cells
        ) + "\n"

    @classmethod
    def from_csv(cls, text):
        rows = []
        for line in text.strip().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append([float(tok) for tok in line.split(",")])
        return cls(rows)

    def to_json(self):
        return json.dumps(
            {"rows": self.rows, "cols": self.cols, "cells": self.cells.tolist()}
        )

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        rel = cls(data["cells"])
        if rel.rows != data.get("rows", rel.rows) or rel.cols != data.get("cols", rel.cols):
            raise ValueError("json rows/cols fields disagree with the cell grid")
        return rel


def _seal(rel, arr):
    """rel with arr, made read-only, as its cells."""
    arr.flags.writeable = False
    object.__setattr__(rel, "cells", arr)
    return rel


def _relation_of(arr):
    """A Relation on arr itself, an array no caller holds (a kernel's
    output), checked like any grid."""
    return _seal(object.__new__(Relation), check_grades(arr, "relation cells"))


def as_grid(R):
    """The cells of a Relation, or a raw grid (rows of unequal length are
    rejected by number, a 1-d grid is one row) checked and clamped by
    check_grades, as a float array: a float array comes back as itself, or
    as a view of it, unless a cell had to be clamped."""
    if isinstance(R, Relation):
        return R.cells
    try:
        arr = np.asarray(R, dtype=float)
    except ValueError:
        sizes = [len(r) if isinstance(r, (list, tuple, np.ndarray)) else 1 for r in R]
        bad = [f"row {k} has length {n}" for k, n in enumerate(sizes) if n != sizes[0]]
        if not bad:
            raise
        more = " and more" if len(bad) > 5 else ""
        raise ValueError(f"ragged grid: row 0 has length {sizes[0]} but "
                         f"{', '.join(bad[:5])}{more}") from None
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    return check_grades(arr, "relation cells")


def identity(n):
    return _relation_of(np.eye(n))


# ---------------------------------------------------------------------------
# Composition specs
# ---------------------------------------------------------------------------

class MaxMin:
    kind = "max-min"
    tnorm = MIN

    def __repr__(self):
        return "MaxMin"


class MaxProduct:
    kind = "max-product"
    tnorm = PRODUCT

    def __repr__(self):
        return "MaxProduct"


class SupT:
    kind = "sup-t"

    def __init__(self, tnorm: TNorm):
        self.tnorm = tnorm

    def __repr__(self):
        return f"SupT({self.tnorm.name})"


class InfImplication:
    """inf_j imp(P[i,j], Q[j,k]); imp must accept numpy arrays elementwise,
    as every implication in relq.grades does."""

    kind = "inf-implication"

    def __init__(self, implication=godel):
        self.implication = implication

    def __repr__(self):
        return "InfImplication"


def composition_by_name(name):
    from .grades import tnorm_by_name

    if name == "max-min":
        return MaxMin()
    if name == "max-product":
        return MaxProduct()
    if name.startswith("sup-t:"):
        return SupT(tnorm_by_name(name.split(":", 1)[1]))
    raise ValueError(f"unknown composition {name!r}")


# Largest temporary (in cells, 256 KB of float64) a kernel builds at once,
# unless one row of Q alone is larger.  Above 256 KB the allocator maps and
# unmaps every temporary, and a few of them no longer fit a 2 MB L2 cache.
CHUNK_CELLS = 1 << 15


def _chunked(op, reduce, P, Q):
    """reduce over j of op(P[i,j], Q[j,k]), for a block of rows of P and a
    slice of j at a time: each op temporary holds at most
    max(CHUNK_CELLS, cols) cells.  Each cell's op value is the same in any
    block, and max and min reduce exactly, so the blocks never change the
    result."""
    rows, mid = P.shape
    cols = Q.shape[1]
    if rows * mid * cols <= CHUNK_CELLS:
        return reduce.reduce(op(P[:, :, None], Q[None, :, :]), axis=1)
    step = min(mid, max(1, CHUNK_CELLS // cols))
    step = -(-mid // -(-mid // step))  # the same number of slices, evened out
    block = max(1, CHUNK_CELLS // (step * cols))
    out = []
    for r in range(0, rows, block):
        p = P[r:r + block, :, None]
        acc = reduce.reduce(op(p[:, :step], Q[None, :step]), axis=1)
        for s in range(step, mid, step):
            reduce(acc, reduce.reduce(op(p[:, s:s + step], Q[None, s:s + step]), axis=1),
                   out=acc)
        out.append(acc)
    return np.concatenate(out)


def sup_t_compose(t: TNorm, P, Q):
    """Array kernel: out[i,k] = max_j t(P[i,j], Q[j,k]) on float grids."""
    return _chunked(t.apply, np.maximum, P, Q)


def inf_implication_compose(imp, P, Q):
    """Array kernel: out[i,k] = min_j imp(P[i,j], Q[j,k]) on float grids."""
    return _chunked(imp, np.minimum, P, Q)


def compose(spec, P, Q):
    """Compose two relations: cell (i,k) = agg_j op(P[i,j], Q[j,k])."""
    P, Q = as_grid(P), as_grid(Q)
    if P.shape[1] != Q.shape[0]:
        raise ValueError(f"dimension mismatch: {P.shape} cannot compose with {Q.shape}")
    if isinstance(spec, (MaxMin, MaxProduct, SupT)):
        return _relation_of(sup_t_compose(spec.tnorm, P, Q))
    if isinstance(spec, InfImplication):
        return _relation_of(inf_implication_compose(spec.implication, P, Q))
    raise ValueError(f"unknown composition spec {spec!r}")


def relational_join(P, Q):
    """3-axis join: J[x, y, z] = min(P[x, y], Q[y, z])."""
    P, Q = as_grid(P), as_grid(Q)
    if P.shape[1] != Q.shape[0]:
        raise ValueError(f"dimension mismatch: {P.shape} vs {Q.shape}")
    return np.minimum(P[:, :, None], Q[None, :, :])


def transpose(R):
    return Relation(as_grid(R).T)


def alpha_cut(R, alpha, strong=False):
    """Binary relation of cells with grade >= alpha (> alpha when strong)."""
    grid = as_grid(R)
    if strong:
        mask = grid > alpha + TOL
    else:
        mask = grid >= alpha - TOL
    return _relation_of(mask.astype(float))


def relation_properties(R, eps=0.5):
    """Structural flags of a square relation."""
    grid = as_grid(R)
    n, m = grid.shape
    if n != m:
        raise ValueError(f"relation_properties needs a square relation, got {grid.shape}")
    diag = np.diag(grid)
    off = ~np.eye(n, dtype=bool)
    square = sup_t_compose(MIN, grid, grid)
    return {
        "reflexive": bool(np.all(diag >= 1 - TOL)),
        "antireflexive": bool(np.all(diag <= TOL)),
        "eps_reflexive": bool(np.all(diag >= eps - TOL)),
        "symmetric": bool(np.all(np.abs(grid - grid.T) <= TOL)),
        "antisymmetric": bool(
            np.all((np.minimum(grid, grid.T) <= TOL) | ~off)
        ),
        "maxmin_transitive": bool(np.all(grid >= square - TOL)),
    }


def transitive_closure(R, t: TNorm = MIN):
    """Least t-transitive relation containing R (iterated composition)."""
    grid = as_grid(R)
    n, m = grid.shape
    if n != m:
        raise ValueError("transitive closure needs a square relation")
    cur = grid
    for _ in range(n + 1):
        nxt = np.maximum(cur, sup_t_compose(t, cur, cur))
        if np.all(np.abs(nxt - cur) <= TOL):
            break
        cur = nxt
    return Relation(cur)
