"""The population-array GA and the Pareto archive it fills: properties over
small random max-min systems, the rank draw against its distribution, and
the per-point operators as one-row views of the batch ones."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relq.optimize import (GaConfig, _parent_ranks, _rank_probabilities, dominates,
                           ga_crossover, ga_initialize, ga_mutate, optimize_multiobjective,
                           optimize_nonlinear_ga)
from relq.solve import FreProblem, max_solution, solve


@st.composite
def ga_cases(draw):
    """A feasible max-min system on a 0.1 or 0.25 grid (tie-heavy), a cost
    vector and a small GA configuration."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    steps = draw(st.sampled_from([4, 10]))
    cells = st.integers(0, steps).map(lambda k: k / steps)
    A = np.array(draw(st.lists(cells, min_size=m * n, max_size=m * n))).reshape(m, n)
    x0 = np.array(draw(st.lists(cells, min_size=m, max_size=m)))
    p = FreProblem(A, FreProblem(A, np.zeros(n)).lhs(x0))
    c = np.array(draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m)), float)
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


def test_parent_ranks_follow_the_rank_probabilities():
    # 10^5 draws: each rank's frequency lies within five standard errors,
    # 5·sqrt(p(1 - p)/N), of its probability p
    n, q, N = 20, 0.1, 100_000
    probs = _rank_probabilities(n, q)
    freq = np.bincount(_parent_ranks(n, q, N, np.random.default_rng(6)), minlength=n) / N
    assert freq.size == n
    assert np.all(np.abs(freq - probs) <= 5.0 * np.sqrt(probs * (1.0 - probs) / N))


def test_rank_probabilities_are_geometric():
    probs = _rank_probabilities(4, 0.5)
    assert probs.sum() == pytest.approx(1.0)
    assert probs == pytest.approx(np.array([8, 4, 2, 1]) / 15)


def small_system():
    A = np.array([[0.5, 0.3, 0.8], [0.7, 0.3, 0.4], [0.5, 0.9, 0.3]])
    return FreProblem(A, FreProblem(A, np.zeros(3)).lhs([0.5, 0.3, 0.3]))


def test_crossover_honours_the_superpoint():
    p = small_system()
    x1, x_hat = solve(p, "pattern").minimals[0], max_solution(p)
    assert not np.allclose(x1, x_hat)
    # the first child lies between x1 and the superpoint, which solve the
    # system, so it needs no repair
    for sp in (x1, x_hat):
        c1, c2 = ga_crossover(x1, x_hat, sp, np.random.default_rng(0), p)
        assert p.is_solution(c1) and p.is_solution(c2)
        lam = np.random.default_rng(0).random()
        assert np.allclose(c1, lam * x1 + (1.0 - lam) * sp, atol=1e-12)


def test_mutation_of_a_point_outside_the_solution_set_is_repaired():
    p = small_system()
    for seed in range(10):
        assert p.is_solution(ga_mutate(np.ones(3), p, np.random.default_rng(seed)))
        assert p.is_solution(ga_mutate(np.zeros(3), p, np.random.default_rng(seed)))


def test_mutation_raises_a_row_other_than_the_lowered_one():
    # every row binds the one constraint, and only row 0 attains it: lowering
    # row 0 must be repaired by another row, so no mutation gives x back
    p = FreProblem([[0.5], [0.5], [0.5]], [0.5])
    x = np.array([0.5, 0.3, 0.3])
    for seed in range(40):
        y = ga_mutate(x, p, np.random.default_rng(seed))
        assert p.is_solution(y) and not np.array_equal(y, x)


@pytest.mark.parametrize("bad", [[0.5, np.nan, 0.3], [0.5, 1.5, 0.3], [0.5, 0.3]])
def test_operators_reject_a_malformed_point(bad):
    p = small_system()
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        ga_mutate(bad, p, rng)
    with pytest.raises(ValueError):
        ga_crossover([0.5, 0.3, 0.3], bad, [0.5, 0.3, 0.3], rng, p)
