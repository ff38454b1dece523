"""Optimization over fuzzy relational equation solution sets.

Linear objectives are minimized exactly by the minimal-cover search of
``relq.solve`` that enumerates the minimal solutions, started with the
negative-cost rows at the greatest solution and cut by the best cost found.
Nonlinear objectives run through a feasibility-preserving genetic
algorithm under any continuous sup-t, whose start box and repair come from
the grid V of ``binding_columns``.  It breeds a whole generation as one
(k, m) array: parents drawn by rank with one ``searchsorted`` on a CDF found
once per run, every draw made for all rows at once, and one repair after
crossover and mutation, with one sup-t composition to find the children
that need it.  The repair finds once which constraints each child misses
and then updates that per raise, from the raised cell alone.
Multi-objective search keeps a Pareto archive that takes a generation at
once: one array pass compares its points with the archive and with each
other, objective-major so that each test reduces over the short objective
axis a whole slice at a time, and the adds are replayed in order over those
booleans, skipping the points blocked by an archived point that must stay.
Fuzzy c-means clusters the archive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grades import (CLOSE_ATOL, CLOSE_RTOL, OBJECTIVE_SLACK, STOP_TOL, TOL, ZERO_DIST2,
                     as_grades, check_integer)
from .relations import CHUNK_CELLS, as_grid, sup_t_compose
from .solve import FreProblem, binding_columns, minimal_covers


def _finite(v, name):
    """v, when all its entries are finite; else a ValueError naming the first that is not."""
    if not np.isfinite(v).all():
        raise ValueError(f"{name} must be finite, got {v[~np.isfinite(v)][0]}")
    return v


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
            raise ValueError(f"cost vector has {self.c.shape[0]} entries for {self.base.m} rows")
        _finite(self.c, "cost vector")


def optimize_linear(p: LinearFreProblem):
    """Exact minimum of c·x over the solution set.

    Negative-cost rows sit at the maximum solution; an optimum among the
    rest is a minimal cover (``minimal_covers``) of what they leave,
    searched with the branches cut where the cost reaches the best found
    (raising a non-negative-cost row never lowers the cost).
    """
    c = p.c
    x_hat, _, V = binding_columns(p.base)
    best = []

    def emit(x, z):
        best[:] = [x[:]]
        return z - OBJECTIVE_SLACK

    minimal_covers(V, np.where(c < 0.0, x_hat, 0.0), c, emit)
    x = np.array(best[0])
    return x, float(np.dot(c, x))


# ---------------------------------------------------------------------------
# Structure helpers
# ---------------------------------------------------------------------------

def pseudo_char_matrix(A, b):
    """Sign pattern of A against b: 1 / 0 / -1 per cell."""
    A = as_grid(A, "A")
    b = as_grades(b, A.shape[1], "b", "columns of A")
    out = np.zeros(A.shape, dtype=int)
    out[A > b[None, :] + TOL] = 1
    out[A < b[None, :] - TOL] = -1
    return out


# ---------------------------------------------------------------------------
# Genetic algorithm (feasibility preserving, any continuous sup-t)
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
        check_integer("population_size", self.population_size, 1)
        check_integer("generations", self.generations, 0)
        if not 0.0 < self.selection_q < 1.0:
            raise ValueError("selection_q must lie in (0, 1)")
        for p in (self.mutation_prob, self.crossover_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must lie in [0, 1]")


class _GaContext:
    """The GA operators on one system under a continuous sup-t.  Each takes
    a (k, m) population array and makes its random draws for all rows at
    once; ``feasible`` repairs what crossover and mutation give into rows
    that solve the system.  They share x_hat, the binding sets I_j (row i in
    I_j attains constraint j at x_hat_i) and V[i, j] of ``binding_columns``
    (capped at x_hat_i), at which row i attains j without leaving [0, x_hat]."""

    def __init__(self, p: FreProblem):
        self.t, self.A, self.b = p.tnorm(), p.A, p.b
        self.x_hat, _, V = binding_columns(p)
        # binding[j, i]: i in I_j; attain[j, i]: row i attains j from there up
        self.binding = np.isfinite(V).T
        self.attain = V.T
        # each row's largest attain (0 if none): [lb, x_hat] attains every j
        self.lb = np.where(self.binding, self.attain, 0.0).max(axis=0, initial=0.0)
        # the rows a mutation may lower: those sharing a binding set
        self.decrease = np.flatnonzero(self.binding[self.binding.sum(axis=1) > 1].any(axis=0))

    def feasible(self, X, rng, avoid=None):
        """X with each row that does not solve the system (one composition
        checks them all) clamped into [0, x_hat] and repaired, in place:
        walking row r's constraints in order, each one no row attains gets a
        random row i of I_j raised to min(V[i, j], x_hat_i), not avoid[r]
        when I_j has another (avoid[r] = -1 spares none).  missed[r, j], the
        constraints row r does not attain, is found once and then updated
        per raise from t(x_i, A[i]) alone."""
        todo = np.flatnonzero(~(np.abs(sup_t_compose(self.t, X, self.A) - self.b)
                                <= TOL).all(axis=1))
        X[todo] = np.clip(X[todo], 0.0, self.x_hat)
        avoid = np.full(len(X), -1) if avoid is None else avoid
        missed = ~(np.abs(self.t.apply(X[todo, :, None], self.A) - self.b) <= TOL).any(axis=1)
        # under x_hat a raise attains its constraint and undoes no other
        # attainment, so each round raises every row's first unattained one
        # and clears only what the raised cell now attains
        while True:
            left = missed.any(axis=1)
            todo, missed = todo[left], missed[left]
            if not todo.size:
                return X
            j = missed.argmax(axis=1)
            pool = self.binding[j]
            pool &= (np.arange(len(self.x_hat)) != avoid[todo, None]) | (
                pool.sum(axis=1, keepdims=True) < 2)
            i = np.where(pool, rng.random(pool.shape), -1.0).argmax(axis=1)
            X[todo, i] = raised = np.maximum(X[todo, i], self.attain[j, i])
            missed &= np.abs(self.t.apply(raised[:, None], self.A[i]) - self.b) > TOL

    def mutate(self, X, rng):
        """Mutation of each row, unrepaired: one coordinate that other rows
        can cover scaled by a random factor.  Returns the mutants and the
        lowered coordinates (-1 where no row can be lowered), which the
        repair should spare."""
        X, k = np.array(X, float), np.full(len(X), -1)
        if self.decrease.size:
            k = self.decrease[rng.integers(self.decrease.size, size=len(X))]
            X[np.arange(len(X)), k] *= rng.random(len(X))
        return X, k

    def crossover(self, X1, X2, superpoint, rng):
        """Contraction of each X1 row toward the superpoint and extraction of
        each X2 row away from its partner, unrepaired; first children, then
        second ones."""
        lam, gamma = rng.random((len(X1), 1)), 1.0 + rng.random((len(X1), 1))
        return np.concatenate([lam * X1 + (1.0 - lam) * superpoint,
                               np.clip(gamma * X2 - (gamma - 1.0) * X1, 0.0, 1.0)])


def _start(p: FreProblem, cfg: GaConfig):
    """Context, generator, initial population and rank-selection CDF of a GA
    run: points sampled in the box [lb, x_hat] of ``_GaContext`` (every such
    point is feasible), repaired as a safety net, and the ``_rank_cdf`` of
    the population, which every generation draws its parents on."""
    ctx = _GaContext(p)
    rng = np.random.default_rng(cfg.rng_seed)
    box = ctx.lb + rng.random((cfg.population_size, p.m)) * (ctx.x_hat - ctx.lb)
    return ctx, rng, ctx.feasible(box, rng), _rank_cdf(cfg.population_size, cfg.selection_q)


def _rank_probabilities(n, q):
    """Geometric rank selection: rank r (0 = best) has weight (1 - q)^r."""
    w = (1.0 - q) ** np.arange(n)
    return w / w.sum()


def _rank_cdf(n, q):
    """The CDF of ``_rank_probabilities(n, q)`` without its last entry, 1."""
    return np.cumsum(_rank_probabilities(n, q))[:-1]


def _parent_ranks(cdf, size, rng):
    """size ranks drawn by the probabilities whose ``_rank_cdf`` is cdf."""
    return np.searchsorted(cdf, rng.random(size), side="right")


def _breed(X, order, count, cdf, ctx: _GaContext, cfg: GaConfig, rng):
    """count feasible children of parents drawn by rank on cdf (order lists X
    best first): crossover, then mutation, each with its configured
    probability, then one repair of them all that spares each mutant's
    lowered row."""
    pairs = (count + 1) // 2
    kids = X[order[_parent_ranks(cdf, 2 * pairs, rng)]]
    cross = rng.random(pairs) < cfg.crossover_prob
    kids[np.tile(cross, 2)] = ctx.crossover(kids[:pairs][cross], kids[pairs:][cross],
                                            ctx.x_hat, rng)
    mut = rng.random(2 * pairs) < cfg.mutation_prob
    avoid = np.full(2 * pairs, -1)
    kids[mut], avoid[mut] = ctx.mutate(kids[mut], rng)
    return ctx.feasible(kids[:count], rng, avoid[:count])


def optimize_nonlinear_ga(p: FreProblem, f, cfg: GaConfig | None = None):
    """Minimize an arbitrary objective over the solution set by GA."""
    cfg = cfg or GaConfig()
    ctx, rng, X, cdf = _start(p, cfg)
    for gen in range(cfg.generations + 1):
        if gen:
            X = np.vstack([best_x, _breed(X, np.argsort(fit), len(X) - 1, cdf, ctx, cfg, rng)])
        fit = _finite(np.array([float(f(x)) for x in X]), "objective values")
        if gen == 0 or fit.min() < best_f:
            best_x, best_f = X[np.argmin(fit)].copy(), fit.min()
    return best_x, float(best_f)


# ---------------------------------------------------------------------------
# Multi-objective search
# ---------------------------------------------------------------------------

def dominates(z1, z2):
    """z1 dominates z2 iff z1 <= z2 and z1 != z2 component-wise, within OBJECTIVE_SLACK;
    either side may be a stack of points (last axis), giving a boolean array."""
    z1, z2 = np.broadcast_arrays(np.atleast_1d(np.asarray(z1, float)), np.asarray(z2, float))
    d = _dominates_om(np.moveaxis(z1, -1, 0), np.moveaxis(z2, -1, 0))
    return bool(d) if d.ndim == 0 else d


def _dominates_om(z1, z2):
    """``dominates`` on objective-major stacks: the objectives run along the
    first axis, so the tests reduce over it, one whole slice at a time."""
    return (z1 <= z2 + OBJECTIVE_SLACK).all(axis=0) & (z1 < z2 - OBJECTIVE_SLACK).any(axis=0)


class ParetoArchive:
    """Mutually non-dominated (x, z) pairs in ``points``, in archiving order.

    A point is archived unless an archived point dominates it or is close to
    it (|z_u - z| <= CLOSE_ATOL + CLOSE_RTOL·|z| in every objective, the band
    scaled by the point being added); archiving it drops the points it
    dominates.  ``extend`` takes a whole batch: one array pass finds every
    dominance and closeness between the batch and the archive and within the
    batch (a batch too large for about CHUNK_CELLS cells goes in slices), and
    the adds are then replayed in order over those booleans, so the result
    is that of adding the rows one at a time.  The pass holds the objective
    values objective-major, a contiguous (objectives, points) array, so each
    test reduces over its leading axis.  The replay skips every batch point
    blocked by an archived point that no batch point dominates: that point
    stays archived, so the batch point is rejected whatever the order."""

    def __init__(self):
        self.points = []
        self._zs = np.empty((0, 0))  # the archived z, objective-major

    def add(self, x, z):
        """Archive (x, z) as above.  True when archived."""
        return self.extend([x], [z])[0]

    def extend(self, X, Z):
        """Archive the rows (x, z) of X and Z in order, as ``add`` would one
        at a time; a list of the bools ``add`` would return."""
        X, Z = np.array(X, float), np.array(Z, float)
        if len(X) != len(Z):
            raise ValueError(f"{len(X)} points for {len(Z)} objective vectors")
        Z = _finite(Z.reshape(len(Z), Z.size // max(len(Z), 1)), "objective vectors")
        if len(Z) and self.points and Z.shape[1] != len(self._zs):
            raise ValueError(f"objective vectors of {Z.shape[1]} values for an archive "
                             f"of {len(self._zs)} objectives")
        # slices whose comparisons with the archive hold about CHUNK_CELLS cells
        step = max(1, CHUNK_CELLS // max((len(self.points) + len(Z)) * Z.shape[1], 1))
        return [a for s in range(0, len(Z), step)
                for a in self._extend(X[s:s + step], Z[s:s + step])]

    def _extend(self, X, Z):
        n = len(self.points)
        new = np.ascontiguousarray(Z.T)
        zs = np.concatenate([self._zs.reshape(len(new), n), new], axis=1)
        zu, zk = zs[:, :, None], new[:, None]
        # [u, k]: z_u lies in the band of the batch's z_k (np.isclose's test,
        # written out; the same for finite z), or dominates it
        blocked = (np.abs(zu - zk) <= CLOSE_ATOL + CLOSE_RTOL * np.abs(zk)).all(axis=0)
        blocked |= _dominates_om(zu, zk)
        # [k, u]: z_k dominates z_u
        drops = _dominates_om(new[:, :, None], zs[:, None])
        # an archived point no batch point dominates stays, so what it blocks is rejected
        todo = np.flatnonzero(~blocked[:n][~drops[:, :n].any(axis=0)].any(axis=0))
        live, added = list(range(n)), [False] * len(Z)
        for k, blocks, dropped in zip(todo.tolist(), blocked.T[todo].tolist(),
                                      drops[todo].tolist()):
            if not any(blocks[u] for u in live):
                added[k] = True
                live = [u for u in live if not dropped[u]] + [n + k]
        # copies, not row views: a view would keep the whole batch alive
        self.points = [self.points[u] if u < n else (X[u - n].copy(), Z[u - n].copy())
                       for u in live]
        self._zs = zs[:, live]
        return added


def optimize_multiobjective(p: FreProblem, fs, cfg: GaConfig | None = None):
    """Evolve with random scalarizations, archiving non-dominated points."""
    if len(fs) < 2:
        raise ValueError("need at least two objectives")
    cfg = cfg or GaConfig()
    archive = ParetoArchive()
    ctx, rng, X, cdf = _start(p, cfg)
    for gen in range(cfg.generations + 1):
        if gen:
            X = _breed(X, np.argsort(Z @ rng.random(len(fs))), len(X), cdf, ctx, cfg, rng)
        Z = np.array([[float(g(x)) for g in fs] for x in X])
        archive.extend(X, Z)
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
    if X.ndim != 2 or not np.isfinite(X).all():
        raise ValueError("points must be a 2-d array of finite numbers")
    P = X.shape[0]
    if isinstance(C, bool) or not isinstance(C, (int, np.integer)) or not 1 <= C <= P:
        raise ValueError(f"C must lie between 1 and the number of points, {P}, as an int: {C!r}")
    if not (np.isfinite(m) and m > 1.0):
        raise ValueError(f"m must be finite and above 1, got {m!r}")
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    check_integer("max_iter", max_iter, 1)
    rng = np.random.default_rng(rng_seed)
    U = rng.random((C, P))
    U /= U.sum(axis=0, keepdims=True)
    centers = np.zeros((C, X.shape[1]))

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
