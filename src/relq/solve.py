"""Resolution of fuzzy relational equations x∘A = b and R∘U = T.

Greatest (maximum) solution, feasibility, minimal-solution enumeration by
three methods, fast solvability/uniqueness certificates, attainability
classification, constrained greatest solutions, defuzzified rule extraction,
and the specificity-shift estimator.

The three enumeration methods run one search, ``minimal_covers`` from zeros,
which emits each minimal solution once (MMCS over the attaining values of the
grid V), so nothing is filtered afterwards; memory is the search stack plus
the result.  The methods return the same arrays in the same (lexicographic)
order; lambda caps the product ∏|I_j| before searching, the others the
minimal solutions emitted.
"""

from __future__ import annotations

import math
import os
from array import array
from dataclasses import dataclass, field

import numpy as np

from .grades import (FIT_SLACK, IMAGE_TIE, STOP_TOL, SUPPORT_DIGITS, TOL, TNorm, as_grades,
                     check_integer, godel)
from .relations import (
    MaxMin, MaxProduct, SupT, Relation, as_grid, compose, inf_implication_compose,
    sup_t_compose,
)

DEFAULT_CAP = 10 ** 6


def combinatorial_cap(cap=None):
    """The cap on enumerated binding combinations: cap when given, else env
    RELQ_CAP, else DEFAULT_CAP; either must be a positive integer."""
    name, given = ("cap", cap) if cap is not None else (
        "RELQ_CAP", os.environ.get("RELQ_CAP") or DEFAULT_CAP)
    try:
        cap = int(given) if cap is None else cap
    except ValueError:
        cap = 0
    if isinstance(cap, bool) or not isinstance(cap, (int, np.integer)) or cap < 1:
        raise ValueError(f"{name} must be a positive integer, got {given!r}")
    return cap


class CapExceeded(RuntimeError):
    pass


class InfeasibleError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Problem container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FreProblem:
    """The system x ∘ A = b: x is 1×m, A is m×n, b has length n."""

    A: np.ndarray
    b: np.ndarray
    composition: object = field(default_factory=MaxMin)

    def __post_init__(self):
        object.__setattr__(self, "A", as_grid(self.A, "A"))
        object.__setattr__(self, "b", as_grades(self.b, self.n, "b", "columns of A"))

    @property
    def m(self):
        return self.A.shape[0]

    @property
    def n(self):
        return self.A.shape[1]

    def tnorm(self) -> TNorm:
        comp = self.composition
        if not isinstance(comp, (MaxMin, MaxProduct, SupT)):
            raise ValueError(f"unsupported composition {comp!r}")
        if not comp.tnorm.continuous:
            raise ValueError("solver compositions require a continuous t-norm")
        return comp.tnorm

    def lhs(self, x):
        """x ∘ A for x of m grades, clipped to [0, 1] as a Relation's cells are."""
        x = as_grades(x, self.m, "x", "rows of A")
        return np.clip(sup_t_compose(self.tnorm(), x[None, :], self.A)[0], 0.0, 1.0)

    def is_solution(self, x):
        """Whether x ∘ A = b within TOL (lhs rejects a malformed x)."""
        return bool(np.all(np.abs(self.lhs(x) - self.b) <= TOL))


@dataclass
class SolutionSet:
    feasible: bool
    x_hat: np.ndarray | None
    minimals: list
    index_sets: list

    def contains(self, x):
        """Membership via the interval characterization ∪ [minimal, x_hat]."""
        x = as_grades(x, None if self.x_hat is None else self.x_hat.size, "x", "rows of A")
        if not self.feasible:
            return False
        if np.any(x > self.x_hat + TOL):
            return False
        lows = np.reshape(self.minimals, (len(self.minimals), x.size))
        return bool(np.all(x >= lows - TOL, axis=1).any())


# ---------------------------------------------------------------------------
# Maximum solution, binding structure, minimal covers
# ---------------------------------------------------------------------------

def max_solution(p: FreProblem):
    """Sanchez greatest-solution candidate; None when the system is infeasible."""
    x_hat = inf_implication_compose(p.tnorm().apply_residuum, p.A, p.b[:, None])[:, 0]
    if p.is_solution(x_hat):
        return x_hat
    return None


def attains(p: FreProblem, x):
    """Boolean m×n grid: row i attains constraint j, |t(x_i, a_ij) − b_j| <= TOL."""
    x = np.asarray(x, float)
    return np.abs(p.tnorm().apply(x[:, None], p.A) - p.b) <= TOL


def binding_sets(p: FreProblem, x_hat):
    """I_j = rows that attain constraint j at equality under x_hat."""
    x_hat = as_grades(x_hat, p.m, "x_hat", "rows of A")
    return [np.flatnonzero(col).tolist() for col in attains(p, x_hat).T]


def binding_columns(p: FreProblem):
    """x_hat, the binding sets I_j, and the m×n grid V with V[i, j] the
    smallest x_i with t(x_i, a_ij) = b_j, capped at x_hat_i, for i in I_j,
    inf elsewhere; raises InfeasibleError when the system has no solution."""
    x_hat = max_solution(p)
    if x_hat is None:
        raise InfeasibleError("system is infeasible")
    rows, js = np.nonzero(attains(p, x_hat))
    V = np.full(p.A.shape, np.inf)
    V[rows, js] = np.minimum(p.tnorm().min_section_solution(p.A[rows, js], p.b[js]),
                             x_hat[rows])
    return x_hat, [[i for i, v in enumerate(col) if v < math.inf] for col in V.T.tolist()], V


def _bits(u):
    """The positions of the set bits of u, lowest first."""
    while u:
        yield (u & -u).bit_length() - 1
        u &= u - 1


def minimal_covers(V, x, c, emit):
    """Each minimal cover of the constraints from x, once: MMCS (Murakami
    and Uno, Discrete Appl. Math. 170, 2014) over the grid V.

    A row with x_i > 0 is fixed there and covers its finite cells of V
    (V <= x_hat); a cell V[i, j] <= TOL is covered at 0.  The other rows
    give the elements (i, v): row i's finite V above TOL, sorted, merged
    where neighbours lie within TOL, and v the largest of a group.  (i, v)
    covers j when V[i, j] <= v + TOL, and it stays only while a column of
    its group has no other cover, so each row takes one value and each cover
    is minimal.  The search branches on the uncovered column with the fewest
    candidates, each tried one leaving the candidates of its later siblings.
    ``emit(x, z)`` sees each cover x (a list, reused) with its cost z = c·x,
    c >= 0 on the free rows, and returns a bound that cuts the branches
    costing as much or more.
    """
    z, x, c, covered, cols = float(c @ x), x.tolist(), c.tolist(), 0, [0] * V.shape[1]
    rows, levels, hits, tight, cells = [], [], [], [], []  # per element, a row's in rising order
    r, k = np.nonzero(V < math.inf)
    for i, v, j in sorted(zip(r.tolist(), V[r, k].tolist(), k.tolist())):
        if x[i] > 0.0 or v <= TOL:
            covered |= 1 << j
            continue
        if not rows or rows[-1] != i or v > levels[-1] + TOL:
            hits.append(hits[-1] if rows and rows[-1] == i else 0)
            rows.append(i), levels.append(v), tight.append(0)
        levels[-1], tight[-1], hits[-1] = v, tight[-1] | 1 << j, hits[-1] | 1 << j
        cells.append((j, len(rows) - 1))
    end = {i: e for e, i in enumerate(rows)}
    for j, e in cells:  # j is covered by its group's element and the row's later ones
        cols[j] |= (2 << end[rows[e]]) - (1 << e)
    costs, bound = [c[i] * v for i, v in zip(rows, levels)], [math.inf]

    def walk(uncov, cand, z, crits):
        # crits: per chosen element, the columns of its group no other covers
        if not uncov:
            bound[0] = emit(x, z)
            return
        j = min(_bits(uncov), key=lambda j: (cols[j] & cand).bit_count())
        for e in _bits(cols[j] & cand):
            own, h = hits[e] & uncov & tight[e], ~hits[e]
            if own and z + costs[e] < bound[0] and all(kept := [f & h for f in crits]):
                x[rows[e]] = levels[e]
                walk(uncov & h, cand, z + costs[e], kept + [own])
                x[rows[e]] = 0.0
            cand &= ~(1 << e)

    walk(((1 << V.shape[1]) - 1) & ~covered, (1 << len(rows)) - 1, z, [])


# ---------------------------------------------------------------------------
# Minimal solutions (see the module docstring)
# ---------------------------------------------------------------------------

def _cover_minimals(p: FreProblem, cap, lambda_bound=False) -> SolutionSet:
    """The minimal covers from zeros, at most cap of them, in lexicographic
    order; with ``lambda_bound`` the bound ∏|I_j| is refused before the
    search.  Each CapExceeded text names what exceeded the cap."""
    cap = combinatorial_cap(cap)
    x_hat, sets, V = binding_columns(p)
    if lambda_bound and math.prod(max(len(s), 1) for s in sets) > cap:
        raise CapExceeded(f"binding combinations exceed cap {cap}")
    found = array("d")

    def emit(x, z):
        if len(found) == cap * p.m:
            raise CapExceeded(f"minimal solutions exceed cap {cap}")
        found.extend(x)
        return math.inf

    minimal_covers(V, np.zeros(p.m), np.zeros(p.m), emit)
    X = np.frombuffer(found).reshape(-1, p.m)
    return SolutionSet(True, x_hat, list(X[np.lexsort(X.T[::-1])]), sets)


def minimal_solutions_lambda(p: FreProblem, cap=None) -> SolutionSet:
    """The cover search, refused up front when the number of binding-row
    combinations f ∈ I_1×…×I_n, ∏|I_j| (the λ-bound), exceeds the cap."""
    return _cover_minimals(p, cap, lambda_bound=True)


def minimal_solutions_matrix_pattern(p: FreProblem, cap=None) -> SolutionSet:
    """The cover search with the cap on the minimal solutions it emits."""
    return _cover_minimals(p, cap)


def minimal_solutions_archimedean(p: FreProblem, cap=None) -> SolutionSet:
    """The cover search with the cap on the minimal solutions it emits, as
    ``pattern`` runs it (the search needs no Archimedean t-norm)."""
    return _cover_minimals(p, cap)


_METHODS = {
    "lambda": minimal_solutions_lambda,
    "pattern": minimal_solutions_matrix_pattern,
    "archimedean": minimal_solutions_archimedean,
}


def solve(p: FreProblem, method="lambda", cap=None) -> SolutionSet:
    try:
        fn = _METHODS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}; choose from {sorted(_METHODS)}") from None
    return fn(p, cap=cap)


# ---------------------------------------------------------------------------
# Fast solvability / uniqueness certificate (orientation A ⊗ x = b)
# ---------------------------------------------------------------------------

@dataclass
class GavalecCertificate:
    solvable: bool
    unique: bool
    x_bar: np.ndarray
    I: list
    K: list
    cell_touches: int


def gavalec_certificate(A, b) -> GavalecCertificate:
    """Linear-time solvability and uniqueness flags for A ⊗ x = b (max-min),
    A of shape m×n, x of length n, b of length m.

    Per column j: M_j = {i : a_ij > b_i}; x̄_j = min b over M_j (1 when
    empty); I_j = {i : a_ij >= b_i = x̄_j}; K_j = {i : a_ij = b_i < x̄_j}.
    Solvable iff every row is covered by some I_j ∪ K_j; unique iff,
    additionally, every column with x̄_j > 0 owns a row coverable only
    through that column's I_j.
    """
    A = as_grid(A, "A")
    bi = as_grades(b, A.shape[0], "b", "rows of A")[:, None]
    # pass 1: x̄_j = min(1, min b over M_j)
    x_bar = np.where(A > bi + TOL, bi, np.inf).min(axis=0, initial=1.0)
    # pass 2: the I and K masks
    I = (A >= bi - TOL) & (np.abs(bi - x_bar) <= TOL)
    K = (np.abs(A - bi) <= TOL) & (bi < x_bar - TOL)
    touches = 2 * A.size  # each pass reads every cell once
    solvable = bool((I | K).any(axis=1).all())
    # a row is owned by a column when it is covered only through that I_j
    own = (I.sum(axis=1) == 1) & ~K.any(axis=1)
    unique = solvable and bool(((I & own[:, None]).any(axis=0) | (x_bar <= TOL)).all())
    I = [np.flatnonzero(col).tolist() for col in I.T]
    K = [np.flatnonzero(col).tolist() for col in K.T]
    return GavalecCertificate(solvable, unique, x_bar, I, K, touches)


# ---------------------------------------------------------------------------
# Attainability
# ---------------------------------------------------------------------------

def classify_attainability(x, p: FreProblem):
    """Per-constraint attainability labels plus the overall classification."""
    x = np.asarray(x, float)
    if not p.is_solution(x):
        raise ValueError("x is not a solution of the system")
    labels = ["attainable" if hit else "unattainable"
              for hit in attains(p, x).any(axis=0)]
    if all(l == "attainable" for l in labels):
        overall = "attainable"
    elif all(l == "unattainable" for l in labels):
        overall = "unattainable"
    else:
        overall = "partially-attainable"
    return labels, overall


# ---------------------------------------------------------------------------
# Greatest solutions of R ∘ U = T with structural constraints
# ---------------------------------------------------------------------------

def _greatest_max_min(R, T, restrict):
    """restrict(U, T) for U the greatest candidate of R∘U = T (max-min), as
    a Relation when it solves the system within TOL; None otherwise."""
    R, T = as_grid(R), as_grid(T)
    if R.shape[0] != T.shape[0]:
        raise ValueError(f"row mismatch: {R.shape} vs {T.shape}")
    U = restrict(inf_implication_compose(godel, R.T, T), T)
    if np.all(np.abs(compose(MaxMin(), R, U).cells - T) <= TOL):
        return Relation(U)
    return None


def greatest_solution_relation(R, T):
    """Greatest U with R∘U = T (max-min); None when infeasible."""
    return _greatest_max_min(R, T, lambda U, T: U)


def _irreflexive(U, T):
    np.fill_diagonal(U, 0.0)
    return U


_RESTRICTIONS = {
    "irreflexive": _irreflexive,
    "symmetric": lambda U, T: np.minimum(U, U.T),
    "transitive": lambda U, T: np.minimum(inf_implication_compose(godel, T.T, T), U),
}


def constrained_greatest(R, T, constraint):
    """Greatest irreflexive / symmetric / transitive solution of R∘U = T,
    when one exists; None otherwise."""
    if constraint not in _RESTRICTIONS:
        raise ValueError(f"unknown constraint {constraint!r}")
    return _greatest_max_min(R, T, _RESTRICTIONS[constraint])


def irreflexivity_condition(R, T):
    """True when every diagonal cell is forced to 0 in any solution:
    for every x there is y with R[y,x] > 0 and T[y,x] = 0."""
    R, T = as_grid(R), as_grid(T)
    if R.shape != T.shape:
        raise ValueError(f"shape mismatch: {R.shape} vs {T.shape}")
    return bool(((R > TOL) & (T <= TOL)).any(axis=0).all())


# ---------------------------------------------------------------------------
# Defuzzified rule extraction from (pattern, selected element) pairs
# ---------------------------------------------------------------------------

def kagei_type1(pairs, size, caps=None):
    """Largest weight vector R with max_x(p(x) ∧ R(x)) = p(x*) ∧ R(x*)
    for every pair (patterns and caps read up to ``size``): the Sanchez
    greatest solution min_k godel(p_k, t_k), t_k = p_k(x*_k) capped at
    caps(x*_k), then capped; all ones when there are no pairs."""
    P, stars = [], []
    for p_vec, x_star in pairs:
        P.append(as_grades(np.ravel(p_vec)[:size], size, "pattern", "entries of R"))
        if not 0 <= x_star < size:
            raise ValueError(f"selected index {x_star} out of range")
        stars.append(x_star)
    caps = np.ones(size) if caps is None else as_grades(np.ravel(caps)[:size], size, "caps",
                                                        "entries of R")
    if not P:
        return np.ones(size)
    P = np.array(P)
    targets = np.minimum(P[np.arange(len(P)), stars], caps[stars])
    return np.minimum(inf_implication_compose(godel, P.T, targets[:, None])[:, 0], caps)


def kagei_type2_unique(pairs, xdim, ydim, slack=STOP_TOL, max_sweeps=1000):
    """Quasi-largest relation R(x,y) whose max-min image of each training
    pattern peaks strictly at the selected output (strictness via slack);
    all ones when there are no pairs.  Patterns, read up to ``xdim``, are
    the rows of one grid."""
    check_integer("max_sweeps", max_sweeps, 1)
    if not 0.0 <= slack < np.inf:
        raise ValueError(f"slack must be finite and non-negative, got {slack!r}")
    if not pairs:
        return np.ones((xdim, ydim))
    pats = as_grid([np.ravel(p) for p, _ in pairs], "patterns")
    ys = np.array([y for _, y in pairs])
    if pats.shape[1] < xdim:
        raise ValueError(f"patterns have {pats.shape[1]} entries for {xdim} inputs")
    for y in ys:
        if not 0 <= y < ydim:
            raise ValueError(f"selected output {y} out of range for {ydim} outputs")
    same = np.all(np.abs(pats[:, None] - pats[None]) <= TOL, axis=-1)
    if np.any(same & (ys[:, None] != ys[None])):
        raise ValueError("contradictory pairs: identical pattern, different outputs")
    R = np.ones((xdim, ydim))
    for _ in range(max_sweeps):
        changed = False
        for p_vec, y_star in zip(pats, ys):
            img = np.minimum(p_vec[:xdim, None], R)
            bound = img[:, y_star].max()
            new = max(0.0, bound - slack)
            cut = (img >= bound - IMAGE_TIE) & (R > new)
            cut[:, y_star] = False
            if cut.any():
                R[cut] = new
                changed = True
        if not changed:
            break
    return R


# ---------------------------------------------------------------------------
# Specificity shift estimation
# ---------------------------------------------------------------------------

def specificity_shift_fit(data, t: TNorm, alpha_grid, beta_grid):
    """Fit R = ∩_k (φ_α[x(k)] → ψ_β[y(k)]) by grid search over (α, β),
    scoring with Σ_k ||y(k) − x(k) ∘ R||².  The identity pair (0, 1) is
    always scored so the result never regresses below the plain fit."""
    if not data:
        raise ValueError("empty data")
    X = as_grid([np.ravel(x) for x, _ in data], "x")
    Y = as_grid([np.ravel(y) for _, y in data], "y")
    alphas = sorted({0.0} | {float(a) for a in alpha_grid})
    betas = sorted({1.0} | {float(b) for b in beta_grid})
    if not all(0.0 <= a < 1.0 for a in alphas):
        raise ValueError("alpha values must lie in [0, 1)")
    if not all(0.0 < b <= 1.0 for b in betas):
        raise ValueError("beta values must lie in (0, 1]")
    best = None
    for alpha in alphas:
        phi = np.maximum(0.0, (X - alpha) / (1.0 - alpha))
        for beta in betas:
            psi = np.minimum(1.0, Y / beta)
            R = inf_implication_compose(t.apply_residuum, phi.T, psi)
            mse = 0.0
            for yv, pred in zip(Y, sup_t_compose(t, X, R)):
                mse += float(np.sum((yv - pred) ** 2))
            if best is None or mse < best[3] - FIT_SLACK:
                best = (Relation(R), alpha, beta, mse)
    return best


# ---------------------------------------------------------------------------
# Solvability criteria for systems of relational premises
# ---------------------------------------------------------------------------

def sre_solvability_criteria(premises, mode):
    """Sufficient solvability tests for premise systems.

    'sup-t': every premise needs exclusive support points realizing each of
    its distinct support values; 'inf-rho': every premise needs at least one
    exclusive support point.  False means "criterion not met".
    """
    if mode not in ("sup-t", "inf-rho"):
        raise ValueError(f"unknown mode {mode!r}")
    premises = [np.ravel(a) for a in premises]
    if not premises:
        return True
    premises = as_grid(premises, "premises")
    # a support point is exclusive when no other premise exceeds TOL there
    shared = (premises > TOL).sum(axis=0) > 1
    for a in premises:
        support = a > TOL
        exclusive = support & ~shared
        if mode == "inf-rho":
            if not exclusive.any():
                return False
        elif not ({round(v, SUPPORT_DIGITS) for v in a[support].tolist()}
                  <= {round(v, SUPPORT_DIGITS) for v in a[exclusive].tolist()}):
            return False
    return True
