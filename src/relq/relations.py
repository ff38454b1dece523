"""Dense fuzzy relations: compositions, joins, cuts, structural properties.

A Relation is a thin immutable wrapper around a float matrix with all cells
in [0, 1].  Compositions are parameterized: max-min, max-product, sup-t for
an arbitrary t-norm, and inf-implication.  ``compose`` is the public entry;
two internal array kernels, which take float grids already checked, compute
every composition: ``sup_t_compose`` (max over j of t(P[i,j], Q[j,k]), through
the t-norm's ``apply``) and ``inf_implication_compose`` (min over j of
imp(P[i,j], Q[j,k]); with a residuum as imp this is the Sanchez greatest
solution).  Both work on a block of rows of P and a slice of the middle
axis at a time, so a temporary holds at most max(``CHUNK_CELLS``, cols)
cells; a call that fits in one block is one op and one reduce.  Both
reject operands whose middle axes differ.  Above one block, from 64 middle
indices on, ``sup_t_compose`` sorts each row's j once in descending order
of P[i, j] and stops each cell on its own, once t(P at the next j, Q's
column maximum) <= out: t is monotone, so no later j can raise it.  A dense
phase takes every cell of a block of rows while more than 1/8 of them can
still rise; a per-cell phase then takes only the cells that can.
``compose`` checks a raw operand in place and copies it only to clamp a
cell in the TOL band; a Relation copies any array its caller can still
write.
"""

from __future__ import annotations

import numpy as np

from .grades import MIN, PRODUCT, TOL, TNorm, check_grades, godel

__all__ = [
    "Relation", "MaxMin", "MaxProduct", "SupT", "InfImplication",
    "composition_by_name", "compose", "relational_join", "transpose",
    "alpha_cut", "relation_properties", "transitive_closure", "identity",
]


class Relation:
    """Immutable dense matrix of grades in [0, 1]."""

    __slots__ = ("cells",)

    def __init__(self, cells):
        arr = as_grid(cells)
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

    @classmethod
    def from_csv(cls, text):
        rows = []
        for line in text.strip().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append([float(tok) for tok in line.split(",")])
        return cls(rows)


def _seal(rel, arr):
    """rel with arr, made read-only, as its cells."""
    arr.flags.writeable = False
    object.__setattr__(rel, "cells", arr)
    return rel


def _relation_of(arr):
    """A Relation on arr itself, an array no caller holds (a kernel's
    output), checked like any grid."""
    return _seal(object.__new__(Relation), check_grades(arr, "relation cells"))


def as_grid(R, name="relation cells"):
    """The cells of a Relation, or a raw grid checked and clamped by
    check_grades, as a float array: a float array comes back as itself, or
    as a view of it, unless a cell had to be clamped.  A grid is 2-d with at
    least one row and one column (a 1-d grid is one row); rows of unequal
    length are rejected by number.  Messages name the grid ``name``."""
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
        raise ValueError(f"{name} is a ragged grid: row 0 has length {sizes[0]} but "
                         f"{', '.join(bad[:5])}{more}") from None
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or 0 in arr.shape:
        raise ValueError(f"{name} must be a 2-d grid of at least 1x1, got shape {arr.shape}")
    return check_grades(arr, name)


def identity(n):
    return _relation_of(np.eye(n))


# ---------------------------------------------------------------------------
# Composition specs
# ---------------------------------------------------------------------------

class MaxMin:
    tnorm = MIN

    def __repr__(self):
        return "MaxMin"


class MaxProduct:
    tnorm = PRODUCT

    def __repr__(self):
        return "MaxProduct"


class SupT:
    def __init__(self, tnorm: TNorm):
        self.tnorm = tnorm

    def __repr__(self):
        return f"SupT({self.tnorm.name})"


class InfImplication:
    """inf_j imp(P[i,j], Q[j,k]); imp must accept numpy arrays elementwise,
    as every implication in relq.grades does."""

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
    if isinstance(name, str) and name.startswith("sup-t:"):
        return SupT(tnorm_by_name(name.split(":", 1)[1]))
    raise ValueError(f"unknown composition {name!r}")


# Largest temporary (in cells, 256 KB of float64) a kernel builds at once,
# unless one row of Q alone is larger.  Above 256 KB the allocator maps and
# unmaps every temporary, and a few of them no longer fit a 2 MB L2 cache.
CHUNK_CELLS = 1 << 15


# sup_t_compose sorts from this mid on; below it sorting costs more than it saves
_SORT_MID = 64
# sorted positions that its dense phase takes per round, and its per-cell phase per step
_DENSE, _PER_CELL = 12, 8


def _chunked(op, reduce, P, Q):
    """reduce over j of op(P[i,j], Q[j,k]), for a block of rows of P and a
    slice of j at a time: each op temporary holds at most
    max(CHUNK_CELLS, cols) cells.  Each cell's op value is the same in any
    block, and max and min reduce exactly, so the blocks never change the
    result.  ValueError unless P has as many columns as Q has rows."""
    (rows, mid), (n, cols) = P.shape, Q.shape
    if mid != n:
        raise ValueError(f"dimension mismatch: {P.shape} cannot compose with {Q.shape}")
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
    """Array kernel: out[i,k] = max_j t(P[i,j], Q[j,k]) on float grids
    already checked (``compose`` is the entry that checks them).

    Above one block, from _SORT_MID middle indices on, each row's j's are
    sorted once in descending order of P[i, j].  A cell is live at sorted
    position e while t(P at e, Q.max(axis=0)) > out (t is monotone, so no
    later j can raise a cell that is not).  Dense phase: each block of rows
    takes every cell over positions 12 at a time, while more than 1/8 of
    its cells are live; a block still running past half of mid hands
    itself and the later rows to the plain kernel.  Per-cell phase
    (``_live_cells``): only the live cells go on, 8 positions at a time,
    each until it is no longer live.  max is exact, so the bytes are the
    plain kernel's.  Op temporaries hold half the block bound or one Q row;
    the sorted P and the live cells' state are no larger than P and out."""
    (rows, mid), (n, cols) = P.shape, Q.shape
    if mid < _SORT_MID or mid != n or rows * mid * cols <= CHUNK_CELLS:
        return _chunked(t.apply, np.maximum, P, Q)  # which rejects mid != n
    block = max(1, CHUNK_CELLS // (2 * _DENSE * cols))
    block = -(-rows // -(-rows // block))  # the same number of blocks, evened out
    step = max(1, min(_DENSE, CHUNK_CELLS // (2 * block * cols)))
    # ascending, then reversed: on a negated copy the sort took 1.7 times as long
    order = np.argsort(P, axis=1)[:, ::-1]
    ps = np.take_along_axis(P, order, axis=1)
    top = Q.max(axis=0)
    out = np.empty((rows, cols))
    going = np.zeros((rows, cols), bool)  # the live cells that the dense phase leaves
    ends = np.empty(rows, int)  # the position from which a row's live cells go on
    for r in range(0, rows, block):
        p, o = ps[r:r + block, :, None], order[r:r + block]
        acc, live = out[r:r + block], going[r:r + block]
        # one of the two exits is taken by e = mid/2 + _DENSE < mid (as mid >= _SORT_MID)
        for e in range(_DENSE, mid, _DENSE):
            for s in range(e - _DENSE, e, step):
                j = slice(s, min(s + step, e))
                part = np.maximum.reduce(t.apply(p[:, j], Q[o[:, j]]), axis=1)
                acc[...] = np.maximum(acc, part) if s else part
            np.greater(t.apply(p[:, e], top), acc, out=live)
            if 8 * np.count_nonzero(live) <= live.size:
                ends[r:r + block] = e
                break
            if 2 * e > mid:
                live[...] = False
                out[r:] = _chunked(t.apply, np.maximum, P[r:], Q)
                return _live_cells(t, ps, order, Q, top, out, going, ends)
    return _live_cells(t, ps, order, Q, top, out, going, ends)


def _live_cells(t, ps, order, Q, top, out, going, ends):
    """The per-cell phase of ``sup_t_compose``: raise each cell of out that
    is ``going`` over its row's sorted positions from ``ends``, _PER_CELL at
    a time, until t(ps at its next position, top) <= its value or its row
    runs out.  Cells are flat-indexed into ps, order (a C-order copy) and
    Q; the position-major (_PER_CELL, cells) temporaries reduce over their
    leading axis, a slice of cells at a time."""
    cell = np.flatnonzero(going)
    if not len(cell):
        return out
    mid, cols = ps.shape[1], Q.shape[1]
    i, k = np.divmod(cell, cols)
    at = i * mid + ends[i]
    last = i * mid + (mid - 1)
    flat_p, flat_o, flat_q, flat_out = ps.ravel(), order.ravel(), Q.ravel(), out.ravel()
    step = min(_PER_CELL, CHUNK_CELLS)
    steps = np.arange(step)[:, None]
    width = max(1, CHUNK_CELLS // (2 * step))
    while len(at):
        acc, keep = flat_out[cell], np.empty(len(at), bool)
        for s in range(0, len(at), width):
            c = slice(s, s + width)
            pos = np.minimum(at[c] + steps, last[c])  # a repeated last j changes no max
            terms = t.apply(flat_p[pos], flat_q[flat_o[pos] * cols + k[c]])
            acc[c] = np.maximum(acc[c], np.maximum.reduce(terms, axis=0))
            nxt = at[c] + step
            keep[c] = nxt <= last[c]
            keep[c] &= t.apply(flat_p[np.minimum(nxt, last[c])], top[k[c]]) > acc[c]
        flat_out[cell] = acc
        at, last, k, cell = at[keep] + step, last[keep], k[keep], cell[keep]
    return out


def inf_implication_compose(imp, P, Q):
    """Array kernel: out[i,k] = min_j imp(P[i,j], Q[j,k]) on float grids
    already checked, as for ``sup_t_compose``."""
    return _chunked(imp, np.minimum, P, Q)


def compose(spec, P, Q):
    """Compose two relations: cell (i,k) = agg_j op(P[i,j], Q[j,k])."""
    P, Q = as_grid(P), as_grid(Q)
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
    grid, alpha = as_grid(R), check_grades(alpha, "alpha")
    if strong:
        mask = grid > alpha + TOL
    else:
        mask = grid >= alpha - TOL
    return _relation_of(mask.astype(float))


def relation_properties(R, eps=0.5):
    """Structural flags of a square relation."""
    grid, eps = as_grid(R), check_grades(eps, "eps")
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
