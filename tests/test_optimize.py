import numpy as np
import pytest

from relq.optimize import (GaConfig, LinearFreProblem, ParetoArchive, _start, dominates,
                           fuzzy_c_means, optimize_linear, optimize_multiobjective,
                           optimize_nonlinear_ga, pseudo_char_matrix)
from relq.relations import MaxProduct, composition_by_name
from relq.solve import FreProblem, max_solution, solve

from .oracles import brute_force_linear, equivalence_reduce_loops


def random_feasible(rng, m, n, decimals=2):
    A = np.round(rng.random((m, n)), decimals)
    x0 = np.round(rng.random(m), decimals)
    b = FreProblem(A, np.zeros(n)).lhs(x0)
    return FreProblem(A, b)


def test_running_instance_optimum():
    p = LinearFreProblem(FreProblem([[0.5, 0.3], [0.7, 0.3]], [0.5, 0.3]),
                         [2.0, 1.0])
    x, z = optimize_linear(p)
    assert z == pytest.approx(0.5)
    assert np.allclose(x, [0.0, 0.5])


def test_negative_costs_take_x_hat():
    base = FreProblem([[0.5, 0.3], [0.7, 0.3]], [0.5, 0.3])
    p = LinearFreProblem(base, [-1.0, -1.0])
    x, z = optimize_linear(p)
    assert np.allclose(x, max_solution(base))


# b_2 / a_2 lies above x_hat = b_0, and b_1 = 6e-10 is met at 0 but its
# section is 1
NUDGED = FreProblem([[1.0, 0.0, 0.5]], [0.75 - 1.2e-10, 6e-10, 0.375 + 8.5e-10], MaxProduct())


def test_optimize_matches_brute_force():
    rng = np.random.default_rng(21)
    cases = []
    for _ in range(60):
        m, n = rng.integers(1, 5), rng.integers(1, 5)
        base = random_feasible(rng, m, n)
        cases.append(LinearFreProblem(base, np.round(rng.uniform(-2, 2, size=m), 2)))
    # the oracle caps the attaining values at x_hat, as binding_columns does;
    # uncapped it gives x = [1.0], cost 3, which is no solution
    cases.append(LinearFreProblem(NUDGED, [3.0]))
    for p in cases:
        x1, z1 = optimize_linear(p)
        x2, z2 = brute_force_linear(p)
        assert z1 == pytest.approx(z2, abs=1e-9)
        assert p.base.is_solution(x1) and p.base.is_solution(x2)
    assert z2 == pytest.approx(2.25, abs=1e-9)


def test_a_nudged_system_keeps_every_row_under_x_hat():
    # the attaining values of NUDGED are capped at x_hat, so x_hat is the one
    # minimal solution and the optimum
    p = NUDGED
    lows = solve(p, "pattern").minimals
    assert [x.tolist() for x in lows] == [[0.75 - 1.2e-10]]
    assert all(p.is_solution(x) for x in lows)
    x, z = optimize_linear(LinearFreProblem(p, [3.0]))
    assert x.tolist() == [0.75 - 1.2e-10] and p.is_solution(x)
    assert z == pytest.approx(2.25, abs=1e-9)


def test_optimum_beats_all_grid_solutions():
    import itertools
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    rng = np.random.default_rng(4)
    for _ in range(10):
        m, n = 2, 2
        A = rng.choice(grid, size=(m, n))
        x0 = rng.choice(grid, size=m)
        base = FreProblem(A, FreProblem(A, np.zeros(n)).lhs(x0))
        c = np.round(rng.uniform(-1, 2, size=m), 2)
        _, z = optimize_linear(LinearFreProblem(base, c))
        for combo in itertools.product(grid, repeat=m):
            x = np.array(combo)
            if base.is_solution(x):
                assert z <= np.dot(c, x) + 1e-9


def test_pseudo_char_matrix():
    out = pseudo_char_matrix([[0.5, 0.2], [0.3, 0.8]], [0.3, 0.5])
    assert out.tolist() == [[1, -1], [0, 1]]


def test_equivalence_reduce_preserves_solutions():
    import itertools
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    rng = np.random.default_rng(9)
    for _ in range(20):
        m, n = rng.integers(1, 4), rng.integers(1, 4)
        A = rng.choice(grid, size=(m, n))
        x0 = rng.choice(grid, size=m)
        b = FreProblem(A, np.zeros(n)).lhs(x0)
        A2 = equivalence_reduce_loops(A, b)
        p1 = FreProblem(A, b)
        p2 = FreProblem(A2, b)
        for combo in itertools.product(grid, repeat=m):
            x = np.array(combo)
            assert p1.is_solution(x) == p2.is_solution(x)


def test_ga_operators_preserve_feasibility():
    rng_np = np.random.default_rng(13)
    base = random_feasible(rng_np, 3, 3)
    cfg = GaConfig(population_size=10, generations=5)
    ctx, _, pop, _ = _start(base, cfg)
    assert pop.shape == (10, 3)
    assert all(base.is_solution(x) for x in pop)
    rng = np.random.default_rng(1)
    X, lowered = ctx.mutate(pop[:4], rng)
    assert all(base.is_solution(x) for x in ctx.feasible(X, rng, lowered))
    kids = ctx.crossover(pop[:1], pop[1:2], max_solution(base), rng)
    assert kids.shape == (2, 3)
    assert all(base.is_solution(x) for x in ctx.feasible(kids, rng))


def test_ga_close_to_exact():
    rng_np = np.random.default_rng(30)
    base = random_feasible(rng_np, 3, 3)
    c = np.array([1.0, 2.0, 0.5])
    _, z_exact = optimize_linear(LinearFreProblem(base, c))
    cfg = GaConfig(population_size=30, generations=60, rng_seed=5)
    _, z_ga = optimize_nonlinear_ga(base, lambda x: float(np.dot(c, x)), cfg)
    assert z_ga >= z_exact - 1e-9
    assert z_ga - z_exact <= 1e-3


def test_ga_runs_under_max_product():
    p = FreProblem([[0.5, 0.8], [1.0, 0.4]], [0.25, 0.4], MaxProduct())
    x, fx = optimize_nonlinear_ga(p, lambda x: float(x @ x), GaConfig(10, 10))
    assert p.is_solution(x) and fx == float(x @ x)


def test_ga_refuses_a_discontinuous_tnorm():
    p = FreProblem([[0.5]], [0.25], composition_by_name("sup-t:drastic"))
    with pytest.raises(ValueError, match="continuous t-norm"):
        optimize_nonlinear_ga(p, lambda x: float(x[0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ga_rejects_a_non_finite_objective(bad):
    # a NaN first evaluation used to become the best point for good
    p = FreProblem([[0.5, 0.3], [0.7, 0.3]], [0.5, 0.3])
    calls = [0]

    def f(x):
        calls[0] += 1
        return bad if calls[0] == 1 else float(x.sum())

    with pytest.raises(ValueError, match=f"^objective values must be finite, got {bad}$"):
        optimize_nonlinear_ga(p, f, GaConfig(4, 2))
    calls[0] = 0
    with pytest.raises(ValueError, match=f"^objective vectors must be finite, got {bad}$"):
        optimize_multiobjective(p, [f, lambda x: float(x[0])], GaConfig(4, 2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_archive_rejects_a_non_finite_objective_vector(bad):
    # [0, 0] dominates every finite point; [nan, 1] used to be kept beside it
    arch = ParetoArchive()
    assert arch.add([0.0], [0.0, 0.0])
    with pytest.raises(ValueError, match=f"^objective vectors must be finite, got {bad}$"):
        arch.add([1.0], [bad, 1.0])
    with pytest.raises(ValueError, match=f"^objective vectors must be finite, got {bad}$"):
        arch.extend([[0.5], [1.0]], [[0.5, 0.5], [1.0, bad]])
    assert [z.tolist() for _, z in arch.points] == [[0.0, 0.0]]


def test_dominates_and_archive():
    assert dominates([0.1, 0.2], [0.2, 0.2])
    assert not dominates([0.1, 0.3], [0.2, 0.2])
    arch = ParetoArchive()
    assert arch.add([0], [0.5, 0.5])
    assert arch.add([1], [0.2, 0.9])
    assert not arch.add([2], [0.6, 0.6])   # dominated
    assert arch.add([3], [0.1, 0.1])       # dominates the first point
    zs = [tuple(z) for _, z in arch.points]
    assert (0.5, 0.5) not in zs and (0.2, 0.9) not in zs


def test_multiobjective_archive_consistency():
    rng_np = np.random.default_rng(2)
    base = random_feasible(rng_np, 3, 3)
    cfg = GaConfig(population_size=16, generations=15, rng_seed=3)
    arch = optimize_multiobjective(
        base, [lambda x: float(np.sum(x)), lambda x: float(np.max(x))], cfg)
    assert arch.points
    for x, _ in arch.points:
        assert base.is_solution(x)
    for i, (_, zi) in enumerate(arch.points):
        for j, (_, zj) in enumerate(arch.points):
            if i != j:
                assert not dominates(zi, zj)


def test_fuzzy_c_means():
    rng = np.random.default_rng(0)
    a = rng.normal(0.0, 0.05, size=(20, 2))
    b = rng.normal(1.0, 0.05, size=(20, 2)) + np.array([1.0, 1.0])
    res = fuzzy_c_means(np.vstack([a, b]), 2)
    assert np.allclose(res.memberships.sum(axis=0), 1.0)
    centers = sorted(res.centers.tolist())
    assert abs(centers[0][0] - 0.0) < 0.2
    assert abs(centers[1][0] - 2.0) < 0.2
    with pytest.raises(ValueError):
        fuzzy_c_means(a, 2, m=1.0)
