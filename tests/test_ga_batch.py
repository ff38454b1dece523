"""The population-array GA and the Pareto archive it fills: properties over
small random max-min, max-product and sup-Łukasiewicz systems, the start box
and the binding sets against those of the equivalence-reduced max-min
system, the repair within [0, x_hat], the rank draw against its
distribution, and the crossover and mutation of one-row populations."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from relq.grades import LUKASIEWICZ, TOL
from relq.optimize import (GaConfig, _breed, _GaContext, _parent_ranks, _rank_cdf,
                           _rank_probabilities, _start, dominates, optimize_multiobjective,
                           optimize_nonlinear_ga)
from relq.relations import MaxMin, MaxProduct, SupT
from relq.solve import FreProblem, binding_columns, max_solution, solve

from .oracles import equivalence_reduce_loops, repair_rounds_loops


@st.composite
def grid_systems(draw, comps, nudge=0.0):
    """A system under one of comps on a 0.1 or 0.25 grid (tie-heavy), b the
    image of a grid point with each entry moved by up to nudge·TOL."""
    comp = draw(st.sampled_from(comps))
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    steps = draw(st.sampled_from([4, 10]))
    cells = st.integers(0, steps).map(lambda k: k / steps)
    A = np.array(draw(st.lists(cells, min_size=m * n, max_size=m * n))).reshape(m, n)
    x0 = np.array(draw(st.lists(cells, min_size=m, max_size=m)))
    shift = draw(st.lists(st.floats(-nudge, nudge), min_size=n, max_size=n))
    b = np.clip(FreProblem(A, np.zeros(n), comp).lhs(x0) + TOL * np.array(shift), 0.0, 1.0)
    return FreProblem(A, b, comp)


@st.composite
def ga_cases(draw):
    """A feasible max-min, max-product or sup-Łukasiewicz grid system, a cost
    vector and a small GA configuration."""
    p = draw(grid_systems([MaxMin(), MaxProduct(), SupT(LUKASIEWICZ)]))
    c = np.array(draw(st.lists(st.integers(-4, 4), min_size=p.m, max_size=p.m)), float)
    probs = st.sampled_from([0.0, 0.3, 1.0])
    cfg = GaConfig(population_size=draw(st.integers(1, 8)),
                   generations=draw(st.integers(0, 4)),
                   selection_q=draw(st.sampled_from([0.05, 0.1, 0.5])),
                   mutation_prob=draw(probs), crossover_prob=draw(probs),
                   rng_seed=draw(st.integers(0, 2 ** 16)))
    return p, c, cfg


@settings(max_examples=60, deadline=None)
@given(ga_cases())
def test_ga_evaluates_only_solutions_and_keeps_the_best(case):
    p, c, cfg = case
    seen = []

    def f(x):
        # every point evaluated is a row of some generation's population
        assert p.is_solution(x)
        seen.append(float(c @ x + x @ x))
        return seen[-1]

    x, fx = optimize_nonlinear_ga(p, f, cfg)
    assert len(seen) == cfg.population_size * (cfg.generations + 1)
    assert p.is_solution(x)
    assert fx == min(seen) == float(c @ x + x @ x)


@settings(max_examples=60, deadline=None)
@given(ga_cases())
def test_archive_holds_non_dominated_solutions(case):
    p, c, cfg = case
    calls = [0]

    def cost(x):
        calls[0] += 1
        assert p.is_solution(x)
        return float(c @ x)

    arch = optimize_multiobjective(p, [cost, lambda x: float(np.max(x, initial=0.0))], cfg)
    assert calls[0] == cfg.population_size * (cfg.generations + 1)
    assert arch.points
    zs = np.array([z for _, z in arch.points])
    for x, z in arch.points:
        assert p.is_solution(x)
        assert z.tolist() == [float(c @ x), float(np.max(x, initial=0.0))]
    assert not dominates(zs[:, None], zs[None]).any()


@settings(max_examples=60, deadline=None)
@given(ga_cases(), st.integers(1, 9))
def test_breed_returns_solutions(case, count):
    # crossover and mutation leave their children unrepaired; the one repair
    # at the end of each generation must make every row a solution
    p, _, cfg = case
    ctx, rng, X, cdf = _start(p, cfg)
    for _ in range(3):
        X = _breed(X, np.arange(len(X)), count, cdf, ctx, cfg, rng)
        cdf = _rank_cdf(count, cfg.selection_q)
        assert X.shape == (count, p.m)
        assert all(p.is_solution(x) for x in X)


@settings(max_examples=200, deadline=None)
@given(grid_systems([MaxMin()], nudge=0.9))
def test_start_box_and_binding_sets_match_the_reduced_max_min_system(p):
    # the max-min-only set-up this context replaced: the binding sets of the
    # equivalence-reduced system, and LB_max, the largest b_j a reduced row
    # reaches (0 when none), capped at x_hat
    assume(max_solution(p) is not None)
    ctx = _GaContext(p)
    reduced = FreProblem(equivalence_reduce_loops(p.A, p.b), p.b)
    x_hat, _, V = binding_columns(reduced)
    lb_max = np.minimum(np.where(reduced.A >= p.b - TOL, p.b, 0.0).max(axis=1), x_hat)
    assert ctx.x_hat.tobytes() == x_hat.tobytes()
    assert np.array_equal(ctx.binding, np.isfinite(V).T)
    assert ctx.lb.tobytes() == lb_max.tobytes()


@settings(max_examples=200, deadline=None)
@given(grid_systems([MaxProduct()], nudge=0.9), st.integers(0, 2 ** 16))
# b_0 lies 0.9·TOL above 0.5·x_hat_0, so the smallest x_0 attaining it,
# b_0 / 0.5, lies above x_hat_0 = 0.5: the repair must stop at x_hat
@example(FreProblem([[0.5, 0.5]], [0.25 + 0.9 * TOL, 0.25], MaxProduct()), 0)
def test_repair_stays_within_x_hat(p, seed):
    # rows drawn in [0, x_hat]: a repaired row must stay there and solve
    assume(max_solution(p) is not None)
    ctx, rng = _GaContext(p), np.random.default_rng(seed)
    X = ctx.feasible(rng.random((6, p.m)) * ctx.x_hat, rng)
    assert np.all((X >= 0.0) & (X <= ctx.x_hat))
    assert all(p.is_solution(x) for x in X)


@settings(max_examples=200, deadline=None)
@given(grid_systems([MaxMin(), MaxProduct(), SupT(LUKASIEWICZ)], nudge=0.9),
       st.integers(1, 12), st.booleans(), st.integers(0, 2 ** 16))
def test_repair_matches_the_rounds_oracle(p, rows, spare, seed):
    # rows drawn in [0, 1], some in [0, x_hat] and some at x_hat (already
    # solutions), each sparing a random row or none: the repaired rows and
    # the generator's state must be those of a repair that recomputes every
    # cell each round
    assume(max_solution(p) is not None)
    ctx, draw = _GaContext(p), np.random.default_rng(seed)
    X = draw.random((rows, p.m))
    X[draw.random(rows) < 0.3] *= ctx.x_hat
    X[draw.random(rows) < 0.2] = ctx.x_hat
    avoid = draw.integers(-1, p.m, size=rows) if spare else None
    got_rng, want_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    got = ctx.feasible(X.copy(), got_rng, avoid)
    want = repair_rounds_loops(ctx, X.copy(), want_rng, avoid)
    assert got.tobytes() == want.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_breed_spares_each_mutants_lowered_row():
    # as in test_mutation_raises_a_row_other_than_the_lowered_one, with every
    # child a mutant of x repaired in one batch: none may come back as x
    p = FreProblem([[0.5], [0.5], [0.5]], [0.5])
    cfg = GaConfig(population_size=8, crossover_prob=0.0, mutation_prob=1.0)
    ctx, rng, _, cdf = _start(p, cfg)
    X = np.tile([0.5, 0.3, 0.3], (8, 1))
    for _ in range(5):
        kids = _breed(X, np.arange(8), 8, cdf, ctx, cfg, rng)
        assert all(p.is_solution(y) and not np.array_equal(y, X[0]) for y in kids)


def test_parent_ranks_follow_the_rank_probabilities():
    # 10^5 draws: each rank's frequency lies within five standard errors,
    # 5·sqrt(p(1 - p)/N), of its probability p
    n, q, N = 20, 0.1, 100_000
    probs = _rank_probabilities(n, q)
    ranks = _parent_ranks(_rank_cdf(n, q), N, np.random.default_rng(6))
    freq = np.bincount(ranks, minlength=n) / N
    assert freq.size == n
    assert np.all(np.abs(freq - probs) <= 5.0 * np.sqrt(probs * (1.0 - probs) / N))


def test_rank_probabilities_are_geometric():
    probs = _rank_probabilities(4, 0.5)
    assert probs.sum() == pytest.approx(1.0)
    assert probs == pytest.approx(np.array([8, 4, 2, 1]) / 15)


def small_system():
    A = np.array([[0.5, 0.3, 0.8], [0.7, 0.3, 0.4], [0.5, 0.9, 0.3]])
    return FreProblem(A, FreProblem(A, np.zeros(3)).lhs([0.5, 0.3, 0.3]))


def mutant(ctx, x, rng):
    """One mutation of the point x, repaired sparing the lowered row."""
    X, k = ctx.mutate(np.array([x], float), rng)
    return ctx.feasible(X, rng, k)[0]


def test_crossover_honours_the_superpoint():
    p = small_system()
    ctx = _GaContext(p)
    x1, x_hat = solve(p, "pattern").minimals[0], max_solution(p)
    assert not np.allclose(x1, x_hat)
    # the first child lies between x1 and the superpoint, which solve the
    # system, so it needs no repair
    for sp in (x1, x_hat):
        rng = np.random.default_rng(0)
        c1, c2 = ctx.feasible(ctx.crossover(x1[None], x_hat[None], sp[None], rng), rng)
        assert p.is_solution(c1) and p.is_solution(c2)
        lam = np.random.default_rng(0).random()
        assert np.allclose(c1, lam * x1 + (1.0 - lam) * sp, atol=1e-12)


def test_mutation_of_a_point_outside_the_solution_set_is_repaired():
    p = small_system()
    ctx = _GaContext(p)
    for seed in range(10):
        assert p.is_solution(mutant(ctx, np.ones(3), np.random.default_rng(seed)))
        assert p.is_solution(mutant(ctx, np.zeros(3), np.random.default_rng(seed)))


def test_mutation_raises_a_row_other_than_the_lowered_one():
    # every row binds the one constraint, and only row 0 attains it: lowering
    # row 0 must be repaired by another row, so no mutation gives x back
    p = FreProblem([[0.5], [0.5], [0.5]], [0.5])
    ctx, x = _GaContext(p), np.array([0.5, 0.3, 0.3])
    for seed in range(40):
        y = mutant(ctx, x, np.random.default_rng(seed))
        assert p.is_solution(y) and not np.array_equal(y, x)
