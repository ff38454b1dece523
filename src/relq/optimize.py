"""Optimization over fuzzy relational equation solution sets.

Linear objectives are minimized exactly by the cover search of
``relq.solve`` (constraints with one binding row forced first), started
with the negative-cost rows at the greatest solution and cut by the best
cost found.
Nonlinear objectives run through a feasibility-preserving genetic
algorithm that breeds a whole generation as one (k, m) array: its parents
drawn by rank with one ``searchsorted``, every crossover and mutation draw
made for all rows at once, and one sup-t composition to find the children
that need repair.
Multi-objective search keeps a Pareto archive, checking each new point
against all archived ones in one array pass; fuzzy c-means clusters it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grades import CLOSE_ATOL, CLOSE_RTOL, MIN, OBJECTIVE_SLACK, STOP_TOL, TOL, ZERO_DIST2
from .relations import MaxMin, as_grid, sup_t_compose
from .solve import FreProblem, attains, binding_columns, cover_search


# ---------------------------------------------------------------------------
# Linear objective
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearFreProblem:
    base: FreProblem
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, float).ravel())
        if self.c.shape[0] != self.base.m:
            raise ValueError(
                f"cost vector has {self.c.shape[0]} entries for {self.base.m} rows"
            )
        if not np.all(np.isfinite(self.c)):
            raise ValueError(f"cost vector must be finite, got {self.c[~np.isfinite(self.c)][0]}")


def split_costs(c):
    """c = c_plus + c_minus with c_plus >= 0 >= c_minus."""
    c = np.asarray(c, float)
    return np.maximum(c, 0.0), np.minimum(c, 0.0)


def optimize_linear(p: LinearFreProblem):
    """Exact minimum of c·x over the solution set.

    Negative-cost rows sit at the maximum solution; the remaining choice of
    one binding row per constraint is the cover search, cut where the cost
    so far reaches the best found (valid because raising a non-negative-cost
    row never lowers the cost).
    """
    base, c = p.base, p.c
    x_hat, _, cols = binding_columns(base)
    best = {"x": None, "z": np.inf}

    def leaf(x):
        z = float(np.dot(c, x))
        if z < best["z"] - OBJECTIVE_SLACK:
            best["x"], best["z"] = x.copy(), z

    cover_search(cols, np.where(c < 0.0, x_hat, 0.0), leaf,
                 prune=lambda x: np.dot(c, x) >= best["z"] - OBJECTIVE_SLACK)
    return best["x"], float(np.dot(c, best["x"]))


# ---------------------------------------------------------------------------
# Structure helpers
# ---------------------------------------------------------------------------

def pseudo_char_matrix(A, b):
    """Sign pattern of A against b: 1 / 0 / -1 per cell."""
    A = as_grid(A)
    b = np.asarray(b, float).ravel()
    out = np.zeros(A.shape, dtype=int)
    out[A > b[None, :] + TOL] = 1
    out[A < b[None, :] - TOL] = -1
    return out


def equivalence_reduce(A, b):
    """Zero the unusable high cells: if b_j1 > b_j2, a_ij1 >= b_j1 and
    a_ij2 > b_j2 then row i can never serve constraint j1, so a_ij1 is
    equivalently 0.  Solution set is preserved (max-min)."""
    A = as_grid(A).copy()
    b = np.asarray(b, float).ravel()
    # zeroing a cell never removes the smallest-b witness of its row, so
    # one pass against that witness gives the fixed point
    low = np.where(A > b + TOL, b, np.inf).min(axis=1, initial=np.inf, keepdims=True)
    A[(A >= b - TOL) & (A > TOL) & (b > low + TOL)] = 0.0
    return A


# ---------------------------------------------------------------------------
# Genetic algorithm (feasibility preserving, max-min systems)
# ---------------------------------------------------------------------------

@dataclass
class GaConfig:
    population_size: int = 40
    generations: int = 200
    selection_q: float = 0.1
    mutation_prob: float = 0.3
    crossover_prob: float = 0.7
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.selection_q < 1.0:
            raise ValueError("selection_q must lie in (0, 1)")
        for p in (self.mutation_prob, self.crossover_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must lie in [0, 1]")


class _GaContext:
    """The GA operators on one max-min system.  Each takes a (k, m)
    population array, makes its random draws for all rows at once and
    returns rows that solve the system.  They share x_hat and the binding
    sets I_j of the equivalence-reduced system (row i in I_j attains
    constraint j at x_i = b_j)."""

    def __init__(self, p: FreProblem):
        if not isinstance(p.composition, MaxMin):
            raise ValueError("genetic operators are defined for max-min systems only")
        self.A, self.b = p.A, p.b
        reduced = FreProblem(equivalence_reduce(p.A, p.b), p.b, MaxMin())
        # the reduction keeps the greatest solution; binding[j, i]: i in I_j
        self.x_hat = binding_columns(reduced)[0]
        self.binding = attains(reduced, self.x_hat).T
        # per row, the largest b_j the reduced row can reach (0 when none)
        self.lb_max = np.minimum(np.where(reduced.A >= p.b - TOL, p.b, 0.0).max(axis=1),
                                 self.x_hat)
        # the rows a mutation may lower: those sharing a binding set
        self.decrease = np.flatnonzero(self.binding[self.binding.sum(axis=1) > 1].any(axis=0))

    def feasible(self, X, rng, avoid=None):
        """X with each row that does not solve the system (one composition
        checks them all) clamped into [0, x_hat] and repaired, in place:
        walking row r's constraints in order, each one no row attains gets a
        random row of I_j raised to b_j, not avoid[r] when I_j has another."""
        todo = np.flatnonzero(~(np.abs(sup_t_compose(MIN, X, self.A) - self.b)
                                <= TOL).all(axis=1))
        X[todo] = np.clip(X[todo], 0.0, self.x_hat)
        avoid = np.full(len(X), -1) if avoid is None else avoid
        # under x_hat a raise attains its constraint and undoes no other
        # attainment, so each round raises every row's first unattained one
        while todo.size:
            missed = ~(np.abs(np.minimum(X[todo, :, None], self.A) - self.b)
                       <= TOL).any(axis=1)
            todo, j = todo[missed.any(axis=1)], missed[missed.any(axis=1)].argmax(axis=1)
            pool = self.binding[j]
            pool &= (np.arange(len(self.x_hat)) != avoid[todo, None]) | (
                pool.sum(axis=1, keepdims=True) < 2)
            i = np.where(pool, rng.random(pool.shape), -1.0).argmax(axis=1)
            X[todo, i] = np.maximum(X[todo, i], self.b[j])
        return X

    def mutate(self, X, rng):
        """Feasible mutation of each row: scale one coordinate that other rows
        can cover by a random factor, then repair, sparing that coordinate."""
        X, k = np.array(X, float), None
        if self.decrease.size:
            k = self.decrease[rng.integers(self.decrease.size, size=len(X))]
            X[np.arange(len(X)), k] *= rng.random(len(X))
        return self.feasible(X, rng, k)

    def crossover(self, X1, X2, superpoint, rng):
        """Contraction of each X1 row toward the superpoint and extraction of
        each X2 row away from its partner; first children, then second ones."""
        lam, gamma = rng.random((len(X1), 1)), 1.0 + rng.random((len(X1), 1))
        return self.feasible(np.concatenate([
            lam * X1 + (1.0 - lam) * superpoint,
            np.clip(gamma * X2 - (gamma - 1.0) * X1, 0.0, 1.0)]), rng)


def _start(p: FreProblem, cfg: GaConfig):
    """Context, generator and initial population of a GA run: points sampled
    in the box [LB_max, x_hat] (after equivalence reduction every such point
    is feasible), repaired as a safety net."""
    ctx = _GaContext(p)
    rng = np.random.default_rng(cfg.rng_seed)
    box = ctx.lb_max + rng.random((cfg.population_size, p.m)) * (ctx.x_hat - ctx.lb_max)
    return ctx, rng, ctx.feasible(box, rng)


def _point(p: FreProblem, x):
    """x as a one-row population, once ``FreProblem.lhs`` has checked it."""
    p.lhs(x)
    return np.asarray(x, float).reshape(1, -1)


def ga_initialize(p: FreProblem, cfg: GaConfig):
    """Initial GA population: feasible points in the box [LB_max, x_hat]."""
    return list(_start(p, cfg)[2])


def ga_mutate(x, p: FreProblem, rng):
    """One feasible mutation of x (see ``_GaContext.mutate``)."""
    return _GaContext(p).mutate(_point(p, x), rng)[0]


def ga_crossover(x1, x2, superpoint, rng, p: FreProblem):
    """Two feasible children of x1 and x2 (see ``_GaContext.crossover``)."""
    return tuple(_GaContext(p).crossover(*(_point(p, v) for v in (x1, x2, superpoint)), rng))


def _rank_probabilities(n, q):
    """Geometric rank selection: rank r (0 = best) has weight (1 - q)^r."""
    w = (1.0 - q) ** np.arange(n)
    return w / w.sum()


def _parent_ranks(n, q, size, rng):
    """size ranks drawn by ``_rank_probabilities(n, q)``, placed on its CDF."""
    return np.searchsorted(np.cumsum(_rank_probabilities(n, q))[:-1], rng.random(size),
                           side="right")


def _breed(X, order, count, ctx: _GaContext, cfg: GaConfig, rng):
    """count children of parents drawn by rank (order lists X best first):
    crossover, then mutation, each with its configured probability."""
    pairs = (count + 1) // 2
    kids = X[order[_parent_ranks(len(X), cfg.selection_q, 2 * pairs, rng)]]
    cross = rng.random(pairs) < cfg.crossover_prob
    kids[np.tile(cross, 2)] = ctx.crossover(kids[:pairs][cross], kids[pairs:][cross],
                                            ctx.x_hat, rng)
    mut = rng.random(2 * pairs) < cfg.mutation_prob
    kids[mut] = ctx.mutate(kids[mut], rng)
    return kids[:count]


def optimize_nonlinear_ga(p: FreProblem, f, cfg: GaConfig | None = None):
    """Minimize an arbitrary objective over the solution set by GA."""
    cfg = cfg or GaConfig()
    ctx, rng, X = _start(p, cfg)
    for gen in range(cfg.generations + 1):
        if gen:
            X = np.vstack([best_x, _breed(X, np.argsort(fit), len(X) - 1, ctx, cfg, rng)])
        fit = np.array([float(f(x)) for x in X])
        if gen == 0 or fit.min() < best_f:
            best_x, best_f = X[np.argmin(fit)].copy(), fit.min()
    return best_x, float(best_f)


# ---------------------------------------------------------------------------
# Multi-objective search
# ---------------------------------------------------------------------------

def dominates(z1, z2):
    """z1 dominates z2 iff z1 <= z2 and z1 != z2 component-wise, within OBJECTIVE_SLACK;
    either side may be a stack of points (last axis), giving a boolean array."""
    z1, z2 = np.asarray(z1, float), np.asarray(z2, float)
    d = (z1 <= z2 + OBJECTIVE_SLACK).all(axis=-1) & (z1 < z2 - OBJECTIVE_SLACK).any(axis=-1)
    return bool(d) if d.ndim == 0 else d


class ParetoArchive:
    """Mutually non-dominated (x, z) pairs in ``points``, in archiving order."""

    def __init__(self):
        self.points = []
        self._zs = np.empty((0, 0))

    def add(self, x, z):
        """Archive (x, z) unless a point dominates or is close to z; drop the
        points z dominates.  True when archived."""
        z = np.array(z, float)
        zs = self._zs.reshape(-1, z.size)
        # np.isclose(zs, z)'s band, written out (the same test for finite z)
        close = (np.abs(zs - z) <= CLOSE_ATOL + CLOSE_RTOL * np.abs(z)).all(axis=-1)
        if (dominates(zs, z) | close).any():
            return False
        keep = ~dominates(z, zs)
        self.points = [pt for pt, k in zip(self.points, keep) if k] + [(np.array(x, float), z)]
        self._zs = np.vstack([zs[keep], z])
        return True


def optimize_multiobjective(p: FreProblem, fs, cfg: GaConfig | None = None):
    """Evolve with random scalarizations, archiving non-dominated points."""
    if len(fs) < 2:
        raise ValueError("need at least two objectives")
    cfg = cfg or GaConfig()
    archive = ParetoArchive()
    ctx, rng, X = _start(p, cfg)
    for gen in range(cfg.generations + 1):
        if gen:
            X = _breed(X, np.argsort(Z @ rng.random(len(fs))), len(X), ctx, cfg, rng)
        Z = np.array([[float(g(x)) for g in fs] for x in X])
        for x, z in zip(X, Z):
            archive.add(x, z)
    return archive


# ---------------------------------------------------------------------------
# Fuzzy c-means
# ---------------------------------------------------------------------------

@dataclass
class FcmResult:
    centers: np.ndarray
    memberships: np.ndarray
    objective: float
    iterations: int


def fuzzy_c_means(points, C, m=2.0, tol=STOP_TOL, max_iter=300, rng_seed=0):
    """Alternating optimization of the fuzzy c-partition objective."""
    X = np.asarray(points, float)
    P = X.shape[0]
    if C > P:
        raise ValueError("more clusters than points")
    if m <= 1.0:
        raise ValueError("fuzzifier m must exceed 1")
    rng = np.random.default_rng(rng_seed)
    U = rng.random((C, P))
    U /= U.sum(axis=0, keepdims=True)
    centers = np.zeros((C, X.shape[1]))
    it = 0

    def dist2(centers):
        """Squared distance of every point to every centre, (C, P)."""
        return ((X[None, :, :] - centers[:, None, :]) ** 2).sum(axis=2)

    for it in range(1, max_iter + 1):
        Um = U ** m
        # a centre with no membership keeps its place
        centers_new = np.divide(Um @ X, Um.sum(axis=1, keepdims=True), out=centers.copy(),
                                where=Um.any(axis=1, keepdims=True))
        d2 = dist2(centers_new)
        # a point on a centre goes wholly to the first one; otherwise its
        # weights d^(-2/(m-1)) are summed along a contiguous row, as in 1-D
        zero = d2 <= ZERO_DIST2
        hit = zero.any(axis=0)
        w = np.ascontiguousarray((1.0 / np.where(hit, 1.0, d2)).T) ** (1.0 / (m - 1.0))
        U_new = np.where(hit, np.arange(C)[:, None] == zero.argmax(axis=0),
                         (w / w.sum(axis=1, keepdims=True)).T)
        moved = float(np.max(np.abs(centers_new - centers)))
        centers, U = centers_new, U_new
        if moved < tol:
            break
    objective = float(((U ** m) * dist2(centers)).sum())
    return FcmResult(centers, U, objective, it)
