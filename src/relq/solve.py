"""Resolution of fuzzy relational equations x∘A = b and R∘U = T.

Greatest (maximum) solution, feasibility, minimal-solution enumeration by
three methods, fast solvability/uniqueness certificates, attainability
classification, constrained greatest solutions, defuzzified rule extraction,
and the specificity-shift estimator.

The three enumeration methods run one search: ``cover_search`` from zeros
over the binding columns, which visits the constraints fewest binding rows
first (so a constraint with one binding row forces its row before any
branching), then the dominance filter of its leaves.  They return the same
arrays in the same order and differ only in what the cap counts: lambda
the product ∏|I_j| before searching, pattern and archimedean the leaves.
The dominance filter and ``SolutionSet.contains`` test a point against the
whole stacked set in one array expression.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .grades import (FIT_SLACK, IMAGE_TIE, STOP_TOL, SUPPORT_DIGITS, TOL, TNorm, check_grades,
                     godel)
from .relations import (
    MaxMin, MaxProduct, SupT, Relation, as_grid, compose, inf_implication_compose,
    sup_t_compose,
)

DEFAULT_CAP = 10 ** 6


def combinatorial_cap():
    """Default cap on enumerated binding combinations (env RELQ_CAP overrides)."""
    env = os.environ.get("RELQ_CAP")
    if not env:
        return DEFAULT_CAP
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"RELQ_CAP must be a positive integer, got {env!r}")
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
        object.__setattr__(self, "A", as_grid(self.A))
        b = np.asarray(self.b, dtype=float).ravel()
        if self.A.shape[1] != b.shape[0]:
            raise ValueError(f"A has {self.A.shape[1]} columns but b has {b.shape[0]} entries")
        object.__setattr__(self, "b", check_grades(b, "b"))

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
        x = np.asarray(x, float).ravel()
        if x.size != self.m:
            raise ValueError(f"dimension mismatch: x has {x.size} entries for {self.m} rows")
        x = check_grades(x, "x")
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
        if not self.feasible:
            return False
        x = np.asarray(x, float)
        if np.any(x > self.x_hat + TOL):
            return False
        lows = np.reshape(self.minimals, (len(self.minimals), x.size))
        return bool(np.all(x >= lows - TOL, axis=1).any())


# ---------------------------------------------------------------------------
# Maximum solution, binding structure, cover search
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
    return [np.flatnonzero(col).tolist() for col in attains(p, x_hat).T]


def binding_columns(p: FreProblem):
    """x_hat, the binding sets I_j, and per constraint j the pairs (i, v)
    for i in I_j, v the smallest x_i with t(x_i, a_ij) = b_j; raises
    InfeasibleError when the system has no solution."""
    x_hat = max_solution(p)
    if x_hat is None:
        raise InfeasibleError("system is infeasible")
    sets = binding_sets(p, x_hat)
    rows = np.array([i for s in sets for i in s], dtype=int)
    js = np.repeat(np.arange(len(sets)), [len(s) for s in sets])
    vals = iter(p.tnorm().min_section_solution(p.A[rows, js], p.b[js]).tolist())
    cols = [[(i, next(vals)) for i in s] for s in sets]
    return x_hat, sets, cols


def cover_search(cols, x, leaf, prune=None):
    """Depth-first choice of one binding row per constraint, starting from x.

    Constraints are visited fewest binding rows first (a stable sort, so a
    constraint with one binding row forces its row before any branching).
    One that some row already covers (x_i >= v - TOL for a pair (i, v) of
    its column) is skipped, otherwise the search branches on raising each
    binding row to its attaining value.  ``leaf(x)`` sees every complete
    assignment (x is reused: copy what you keep) and a branch stops where
    ``prune(x)`` is true.
    """
    cols = sorted(cols, key=len)

    def walk(pos):
        if prune is not None and prune(x):
            return
        while pos < len(cols) and any(x[i] >= v - TOL for i, v in cols[pos]):
            pos += 1
        if pos == len(cols):
            leaf(x)
            return
        # the column is uncovered, so each of its rows sits below v
        for i, v in cols[pos]:
            old = x[i]
            x[i] = v
            walk(pos + 1)
            x[i] = old

    walk(0)


def _dominance_filter(cands):
    """Keep the cell-wise minimal elements, deduped, canonically sorted: a
    candidate goes when a survivor is <= it + TOL in every cell."""
    def sweep(seq):
        out, kept = [], np.empty((len(seq), seq[0].size if seq else 0))
        for c in seq:
            if not np.all(kept[:len(out)] <= c + TOL, axis=1).any():
                kept[len(out)] = c
                out.append(c)
        return out

    # backwards again: float jitter can sort a vector before its dominator
    return sweep(sweep([np.asarray(c, float) for c in sorted(cands, key=tuple)])[::-1])[::-1]


# ---------------------------------------------------------------------------
# Minimal solutions (see the module docstring)
# ---------------------------------------------------------------------------

def _cover_minimals(p: FreProblem, cap, message, lambda_bound=False) -> SolutionSet:
    """cover_search from zeros, then the dominance filter.  The cap counts
    the leaves; with ``lambda_bound`` the product ∏|I_j|, which bounds the
    leaves, is refused before the search.  ``message`` formats the
    CapExceeded text with the cap."""
    cap = combinatorial_cap() if cap is None else cap
    x_hat, sets, cols = binding_columns(p)
    if lambda_bound and math.prod(max(len(s), 1) for s in sets) > cap:
        raise CapExceeded(message.format(cap))
    leaves = []

    def leaf(x):
        leaves.append(x.copy())
        if len(leaves) > cap:
            raise CapExceeded(message.format(cap))

    cover_search(cols, np.zeros(p.m), leaf)
    return SolutionSet(True, x_hat, _dominance_filter(leaves), sets)


def minimal_solutions_lambda(p: FreProblem, cap=None) -> SolutionSet:
    """Binding-row combinations f ∈ I_1×…×I_n, searched and filtered;
    refused up front when ∏|I_j| (the λ-bound) exceeds the cap."""
    return _cover_minimals(p, cap, "binding combinations exceed cap {}", lambda_bound=True)


def minimal_solutions_matrix_pattern(p: FreProblem, cap=None) -> SolutionSet:
    """The cover search with the cap on its leaves."""
    return _cover_minimals(p, cap, "matrix-pattern branches exceed cap {}")


def minimal_solutions_archimedean(p: FreProblem, cap=None) -> SolutionSet:
    """The cover search with the cap on its leaves; defined for Archimedean
    t-norms only."""
    t = p.tnorm()
    if not t.archimedean:
        raise ValueError(f"requires an Archimedean t-norm, got {t.name}")
    return _cover_minimals(p, cap, "candidate set exceeds cap {}")


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
    A = as_grid(A)
    b = np.asarray(b, float).ravel()
    if b.shape[0] != A.shape[0]:
        raise ValueError(f"A has {A.shape[0]} rows but b has {b.shape[0]} entries")
    b = check_grades(b, "b")
    bi = b[:, None]
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
    return bool(((R > TOL) & (T[:len(R), :R.shape[1]] <= TOL)).any(axis=0).all())


# ---------------------------------------------------------------------------
# Defuzzified rule extraction from (pattern, selected element) pairs
# ---------------------------------------------------------------------------

def kagei_type1(pairs, size, caps=None):
    """Largest weight vector R with max_x(p(x) ∧ R(x)) = p(x*) ∧ R(x*)
    for every pair; closed-form cell-wise meet of per-pair solutions."""
    R = np.ones(size)
    for p_vec, x_star in pairs:
        p_vec = np.asarray(p_vec, float)[:size]
        if not 0 <= x_star < size:
            raise ValueError(f"selected index {x_star} out of range")
        target = p_vec[x_star]
        if caps is not None:
            target = min(target, caps[x_star])
        val = godel(p_vec, target)
        if caps is not None:
            val = np.minimum(val, np.asarray(caps, float)[:size])
        R = np.minimum(R, val)
    return R


def kagei_type2_unique(pairs, xdim, ydim, slack=STOP_TOL, max_sweeps=1000):
    """Quasi-largest relation R(x,y) whose max-min image of each training
    pattern peaks strictly at the selected output (strictness via slack)."""
    pats, ys = np.array([p for p, _ in pairs], float), np.array([y for _, y in pairs])
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
    X = np.array([np.asarray(x, float) for x, _ in data])
    Y = np.array([np.asarray(y, float) for _, y in data])
    alphas = sorted({0.0} | {float(a) for a in alpha_grid})
    betas = sorted({1.0} | {float(b) for b in beta_grid})
    for a in alphas:
        if not 0.0 <= a < 1.0:
            raise ValueError("alpha values must lie in [0, 1)")
    for b in betas:
        if not 0.0 < b <= 1.0:
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
    premises = [np.asarray(a, float) for a in premises]
    if mode not in ("sup-t", "inf-rho"):
        raise ValueError(f"unknown mode {mode!r}")
    # a support point is exclusive when no other premise exceeds TOL there
    shared = np.sum([~(a <= TOL) for a in premises], axis=0) > 1
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
