"""Optimization over fuzzy relational equation solution sets.

Linear objectives are minimized exactly by the cover search of
``relq.solve``, cut by the best cost found; ``reduce_problem`` reports what
can be fixed before a search (the optimizer does not use it yet).
Nonlinear objectives run through a feasibility-preserving genetic
algorithm whose operators are methods of one context per system.
Multi-objective search keeps a Pareto archive, checking each new point
against all archived ones in one array pass; fuzzy c-means clusters it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grades import TOL
from .relations import MaxMin, as_grid
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


@dataclass
class ReductionState:
    fixed: dict
    removed_constraints: list
    forced_constraints: list
    subproblems: list
    x_hat: np.ndarray
    index_sets: list


def reduce_problem(p: LinearFreProblem) -> ReductionState:
    """Fix what can be fixed before searching.

    Non-positive-cost rows take their maximum-solution value; constraints
    they already attain drop out.  Constraints with a single binding row
    force that row.  Surviving constraints split into independent
    subproblems by binding-set overlap.
    """
    base, c = p.base, p.c
    x_hat, sets, cols = binding_columns(base)
    fixed = {}
    removed = []
    for i in range(base.m):
        if c[i] <= 0.0:
            fixed[i] = x_hat[i]
    for j in range(base.n):
        if any(i in fixed for i in sets[j]):
            removed.append(j)
    pending = [j for j in range(base.n) if j not in removed]
    forced = []
    changed = True
    while changed:
        changed = False
        for j in list(pending):
            live = [(i, v) for i, v in cols[j] if i not in fixed]
            if any(i in fixed and fixed[i] >= v - TOL for i, v in cols[j]):
                pending.remove(j)
                removed.append(j)
                changed = True
            elif len(live) == 1:
                i, v = live[0]
                fixed[i] = max(fixed.get(i, 0.0), v)
                pending.remove(j)
                forced.append(j)
                changed = True
    # connected components of the surviving constraints by shared rows
    subproblems = []
    todo = list(pending)
    while todo:
        comp = [todo.pop()]
        rows = set(i for i in sets[comp[0]] if i not in fixed)
        grew = True
        while grew:
            grew = False
            for j in list(todo):
                jr = set(i for i in sets[j] if i not in fixed)
                if jr & rows:
                    comp.append(j)
                    todo.remove(j)
                    rows |= jr
                    grew = True
        subproblems.append((sorted(comp), sorted(rows)))
    return ReductionState(fixed, sorted(removed), forced, subproblems, x_hat, sets)


def optimize_linear(p: LinearFreProblem):
    """Exact minimum of c·x over the solution set.

    Negative-cost rows sit at the maximum solution; the remaining choice of
    one binding row per constraint is a cover search, fewest binding rows
    first, cut where the cost so far reaches the best found (valid because
    raising a non-negative-cost row never lowers the cost).
    """
    base, c = p.base, p.c
    x_hat, sets, cols = binding_columns(base)
    best = {"x": None, "z": np.inf}

    def leaf(x):
        z = float(np.dot(c, x))
        if z < best["z"] - 1e-12:
            best["x"], best["z"] = x.copy(), z

    cover_search(cols, sorted(range(base.n), key=lambda j: len(sets[j])),
                 np.where(c < 0.0, x_hat, 0.0), leaf,
                 prune=lambda x: np.dot(c, x) >= best["z"] - 1e-12)
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
    """The GA operators on one max-min system, with what they share: x_hat,
    the binding sets I_j of the reduced system and their attaining values."""

    def __init__(self, p: FreProblem):
        if not isinstance(p.composition, MaxMin):
            raise ValueError("genetic operators are defined for max-min systems only")
        self.problem = p
        self.reduced = FreProblem(equivalence_reduce(p.A, p.b), p.b, MaxMin())
        # the reduction keeps the greatest solution
        self.x_hat, self.sets, cols = binding_columns(self.reduced)
        self.vals = {(i, j): v for j, col in enumerate(cols) for i, v in col}
        # per row, the largest b_j the reduced row can reach (0 when none)
        reach = self.reduced.A >= p.b - TOL
        lb = np.where(reach.any(axis=1), np.where(reach, p.b, -np.inf).max(axis=1), 0.0)
        self.lb_max = np.minimum(lb, self.x_hat)
        # the rows a mutation may lower: those sharing a binding set
        self.decrease = sorted({i for s in self.sets if len(s) > 1 for i in s})

    def _raise_unattained(self, x, pick):
        """Walk the constraints in order; for each one no row attains under
        the current x, raise the row pick(j) to its attaining value (in place)."""
        p = self.problem
        missed = ~attains(p, x).any(axis=0)
        for j in range(p.n):
            if missed[j]:
                i = pick(j)
                x[i] = max(x[i], self.vals[(i, j)])
                missed = ~attains(p, x).any(axis=0)
        return x

    def repair(self, x, rng):
        """Project a vector into the solution set: clamp into [0, x_hat] and
        raise a binding row for every unattained constraint."""
        sets = self.sets
        return self._raise_unattained(np.clip(x, 0.0, self.x_hat),
                                      lambda j: sets[j][int(rng.integers(len(sets[j])))])

    def feasible(self, x, rng):
        """x when it solves the system, its repair otherwise."""
        return x if self.problem.is_solution(x) else self.repair(x, rng)

    def mutate(self, x, rng):
        """Feasible mutation: drop one coordinate that other rows can cover,
        then repair any broken constraint by raising a covering row."""
        x = np.asarray(x, float).copy()
        if not self.decrease:
            return x
        k = self.decrease[int(rng.integers(len(self.decrease)))]
        x[k] = x[k] * rng.random()

        # repair broken constraints, preferring rows other than the decreased one
        def pick(j):
            pool = [i for i in self.sets[j] if i != k] or self.sets[j]
            return pool[int(rng.integers(len(pool)))]
        return self.feasible(self._raise_unattained(x, pick), rng)

    def crossover(self, x1, x2, superpoint, rng):
        """Contraction of x1 toward the superpoint, extraction of x2 away from
        its partner; both children repaired to feasibility."""
        x1, x2, superpoint = (np.asarray(v, float) for v in (x1, x2, superpoint))
        lam = rng.random()
        child1 = lam * x1 + (1.0 - lam) * superpoint
        gamma = 1.0 + rng.random()
        child2 = np.clip(gamma * x2 - (gamma - 1.0) * x1, 0.0, 1.0)
        return self.feasible(child1, rng), self.feasible(child2, rng)


def _start(p: FreProblem, cfg: GaConfig):
    """Context, generator and initial population of a GA run: points sampled
    in the box [LB_max, x_hat] (after equivalence reduction every such point
    is feasible), repaired as a safety net."""
    ctx = _GaContext(p)
    rng = np.random.default_rng(cfg.rng_seed)
    pop = [ctx.feasible(ctx.lb_max + rng.random(p.m) * (ctx.x_hat - ctx.lb_max), rng)
           for _ in range(cfg.population_size)]
    return ctx, rng, pop


def ga_initialize(p: FreProblem, cfg: GaConfig):
    """Initial GA population: feasible points in the box [LB_max, x_hat]."""
    return _start(p, cfg)[2]


def ga_mutate(x, p: FreProblem, rng):
    """One feasible mutation of x (see ``_GaContext.mutate``)."""
    return _GaContext(p).mutate(x, rng)


def ga_crossover(x1, x2, superpoint, rng, p: FreProblem):
    """Two feasible children of x1 and x2 (see ``_GaContext.crossover``)."""
    return _GaContext(p).crossover(x1, x2, superpoint, rng)


def _rank_probabilities(n, q):
    qp = q / (1.0 - (1.0 - q) ** n)
    probs = np.array([qp * (1.0 - q) ** r for r in range(n)])
    return probs / probs.sum()


def _breed(pop, order, nxt, ctx: _GaContext, cfg: GaConfig, rng):
    """Fill nxt up to the population size with the children of parents
    drawn by rank (order lists pop best first): crossover, then mutation,
    each with its configured probability."""
    n = cfg.population_size
    probs = _rank_probabilities(n, cfg.selection_q)
    while len(nxt) < n:
        a = pop[order[int(rng.choice(n, p=probs))]]
        b = pop[order[int(rng.choice(n, p=probs))]]
        if rng.random() < cfg.crossover_prob:
            c1, c2 = ctx.crossover(a, b, ctx.x_hat, rng)
        else:
            c1, c2 = a.copy(), b.copy()
        for child in (c1, c2):
            if rng.random() < cfg.mutation_prob:
                child = ctx.mutate(child, rng)
            nxt.append(child)
    return nxt[:n]


def optimize_nonlinear_ga(p: FreProblem, f, cfg: GaConfig | None = None):
    """Minimize an arbitrary objective over the solution set by GA."""
    cfg = cfg or GaConfig()
    ctx, rng, pop = _start(p, cfg)
    fit = [float(f(x)) for x in pop]
    best_i = int(np.argmin(fit))
    best_x, best_f = pop[best_i].copy(), fit[best_i]
    for _ in range(cfg.generations):
        pop = _breed(pop, np.argsort(fit), [best_x.copy()], ctx, cfg, rng)
        fit = [float(f(x)) for x in pop]
        gen_i = int(np.argmin(fit))
        if fit[gen_i] < best_f:
            best_f = fit[gen_i]
            best_x = pop[gen_i].copy()
    return best_x, best_f


# ---------------------------------------------------------------------------
# Multi-objective search
# ---------------------------------------------------------------------------

def dominates(z1, z2, tol=1e-12):
    """z1 dominates z2 iff z1 <= z2 component-wise and z1 != z2; either side
    may be a stack of points (last axis), giving a boolean array."""
    z1, z2 = np.asarray(z1, float), np.asarray(z2, float)
    d = np.all(z1 <= z2 + tol, axis=-1) & np.any(z1 < z2 - tol, axis=-1)
    return bool(d) if d.ndim == 0 else d


class ParetoArchive:
    def __init__(self):
        self.points = []

    def add(self, x, z):
        """Archive (x, z) unless a point dominates or is close to z; drop the
        points z dominates.  True when archived."""
        z = np.asarray(z, float)
        zs = np.reshape([pz for _, pz in self.points], (-1, z.size))
        if (dominates(zs, z) | np.isclose(zs, z).all(axis=-1)).any():
            return False
        self.points = [pt for pt, out in zip(self.points, dominates(z, zs)) if not out]
        self.points.append((np.asarray(x, float).copy(), z))
        return True


def optimize_multiobjective(p: FreProblem, fs, cfg: GaConfig | None = None):
    """Evolve with random scalarizations, archiving non-dominated points."""
    if len(fs) < 2:
        raise ValueError("need at least two objectives")
    cfg = cfg or GaConfig()
    archive = ParetoArchive()

    def evaluate(x):
        z = np.array([float(g(x)) for g in fs])
        archive.add(x, z)
        return z

    ctx, rng, pop = _start(p, cfg)
    zs = [evaluate(x) for x in pop]
    for _ in range(cfg.generations):
        w = rng.random(len(fs))
        w /= w.sum()
        scal = [float(np.dot(w, z)) for z in zs]
        pop = _breed(pop, np.argsort(scal), [], ctx, cfg, rng)
        zs = [evaluate(x) for x in pop]
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


def fuzzy_c_means(points, C, m=2.0, tol=1e-6, max_iter=300, rng_seed=0):
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
    for it in range(1, max_iter + 1):
        Um = U ** m
        centers_new = (Um @ X) / Um.sum(axis=1, keepdims=True)
        d2 = np.maximum(
            ((X[None, :, :] - centers_new[:, None, :]) ** 2).sum(axis=2), 0.0
        )
        U_new = np.zeros_like(U)
        for pidx in range(P):
            zero = np.where(d2[:, pidx] <= 1e-18)[0]
            if zero.size:
                U_new[zero[0], pidx] = 1.0
            else:
                inv = (1.0 / d2[:, pidx]) ** (1.0 / (m - 1.0))
                U_new[:, pidx] = inv / inv.sum()
        moved = float(np.max(np.abs(centers_new - centers)))
        centers, U = centers_new, U_new
        if moved < tol:
            break
    objective = float(((U ** m) * np.maximum(
        ((X[None, :, :] - centers[:, None, :]) ** 2).sum(axis=2), 0.0
    )).sum())
    return FcmResult(centers, U, objective, it)
