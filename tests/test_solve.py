import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relq.grades import LUKASIEWICZ, MIN, PRODUCT, godel
from relq.relations import MaxMin, MaxProduct, Relation, SupT
from relq.solve import (CapExceeded, FreProblem, InfeasibleError,
                        binding_columns, binding_sets, classify_attainability,
                        combinatorial_cap, constrained_greatest, cover_search,
                        gavalec_certificate, greatest_solution_relation, kagei_type1,
                        kagei_type2_unique, max_solution,
                        minimal_solutions_archimedean,
                        minimal_solutions_lambda,
                        minimal_solutions_matrix_pattern, solve,
                        specificity_shift_fit, sre_solvability_criteria)

from .oracles import (archimedean_buildup, grid_in_union, grid_solutions, minimal_set_key,
                      product_minimals)

GRID5 = [0.0, 0.25, 0.5, 0.75, 1.0]


def test_max_solution_identity():
    p = FreProblem(np.eye(3), [0.2, 0.7, 1.0])
    assert np.allclose(max_solution(p), [0.2, 0.7, 1.0])


def test_max_solution_running_instance():
    p = FreProblem([[0.5, 0.3], [0.7, 0.3]], [0.5, 0.3])
    assert np.allclose(max_solution(p), [1.0, 0.5])
    res = solve(p)
    assert res.feasible
    assert minimal_set_key(res.minimals) == [(0.0, 0.5), (0.5, 0.0)]


def test_infeasible():
    p = FreProblem([[0.1, 0.1]], [0.9, 0.9])
    assert max_solution(p) is None
    with pytest.raises(InfeasibleError):
        solve(p)


@pytest.mark.parametrize("A, b", [
    ([[np.nan, 0.5], [0.3, 0.2]], [0.5, 0.3]),
    ([[2.0, 0.5], [0.3, 0.2]], [0.5, 0.3]),
    ([[0.5, 0.5]], [np.inf, 0.3]),
    ([[0.5, 0.5]], [0.5, -0.1]),
])
def test_problem_rejects_bad_grades(A, b):
    with pytest.raises(ValueError, match="must be finite and lie in"):
        FreProblem(A, b)


@pytest.mark.parametrize("value, cap", [(None, 10 ** 6), ("7", 7), ("abc", None), ("0", None)])
def test_combinatorial_cap_env(monkeypatch, value, cap):
    if value is None:
        monkeypatch.delenv("RELQ_CAP", raising=False)
    else:
        monkeypatch.setenv("RELQ_CAP", value)
    if cap is None:
        with pytest.raises(ValueError, match="RELQ_CAP must be a positive integer"):
            combinatorial_cap()
    else:
        assert combinatorial_cap() == cap


def test_solution_set_contains():
    p = FreProblem([[0.5, 0.3], [0.7, 0.3]], [0.5, 0.3])
    res = solve(p)
    assert res.contains([1.0, 0.5])
    assert res.contains([0.5, 0.0])
    assert res.contains([0.6, 0.2])
    assert not res.contains([0.4, 0.2])
    assert not res.contains([1.0, 0.6])


@pytest.mark.parametrize("comp", [MaxMin(), MaxProduct()])
def test_grid_characterization_small(comp):
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 25:
        m, n = rng.integers(1, 4), rng.integers(1, 4)
        A = rng.choice(GRID5, size=(m, n))
        x0 = rng.choice(GRID5, size=m)
        p0 = FreProblem(A, np.zeros(n), comp)
        b = p0.lhs(x0)
        p = FreProblem(A, b, comp)
        res = solve(p)
        assert res.feasible
        for combo in itertools.product(GRID5, repeat=m):
            x = np.array(combo)
            assert p.is_solution(x) == grid_in_union(x, res)
        checked += 1


def test_three_methods_agree():
    rng = np.random.default_rng(11)
    for _ in range(40):
        m, n = rng.integers(1, 5), rng.integers(1, 5)
        A = np.round(rng.random((m, n)), 2)
        x0 = np.round(rng.random(m), 2)
        pm = FreProblem(A, FreProblem(A, np.zeros(n)).lhs(x0))
        k1 = minimal_set_key(minimal_solutions_lambda(pm).minimals)
        k2 = minimal_set_key(minimal_solutions_matrix_pattern(pm).minimals)
        assert k1 == k2 == minimal_set_key(product_minimals(pm))
        pp = FreProblem(A, FreProblem(A, np.zeros(n), MaxProduct()).lhs(x0),
                        MaxProduct())
        keys = [
            minimal_set_key(fn(pp).minimals)
            for fn in (minimal_solutions_lambda,
                       minimal_solutions_matrix_pattern,
                       minimal_solutions_archimedean)
        ]
        assert keys[0] == keys[1] == keys[2] == minimal_set_key(product_minimals(pp))


def test_minimals_are_solutions_and_minimal():
    p = FreProblem([[0.5, 0.3, 0.8], [0.7, 0.3, 0.2], [0.2, 0.9, 0.4]],
                   [0.5, 0.3, 0.4])
    res = solve(p)
    for m in res.minimals:
        assert p.is_solution(m)
        assert np.all(m <= res.x_hat + 1e-9)
        for other in res.minimals:
            if other is not m:
                assert not (np.all(other <= m + 1e-9)
                            and np.any(other < m - 1e-9))


METHODS = [minimal_solutions_lambda, minimal_solutions_matrix_pattern,
           minimal_solutions_archimedean]


def test_cap_exceeded():
    A = np.full((8, 8), 0.5)
    b = np.full(8, 0.5)
    with pytest.raises(CapExceeded):
        minimal_solutions_lambda(FreProblem(A, b), cap=10)


@pytest.mark.parametrize("method", METHODS, ids=["lambda", "pattern", "archimedean"])
def test_cap_at_the_count(method):
    # rows 2j and 2j+1 bind column j: 2^8 minimal solutions, and each method's
    # count (combinations or leaves) is exactly 256
    A = np.zeros((16, 8))
    A[np.arange(16), np.arange(16) // 2] = 1.0
    p = FreProblem(A, np.full(8, 0.5), MaxProduct())
    with pytest.raises(CapExceeded):
        method(p, cap=255)
    want = []
    for k in range(256):
        x = np.zeros(16)
        x[2 * np.arange(8) + (k >> np.arange(8) & 1)] = 0.5
        want.append(x)
    assert minimal_set_key(method(p, cap=256).minimals) == minimal_set_key(want)


def test_cover_search_skips_covered_columns_and_prunes():
    p = FreProblem(np.full((7, 7), 0.5), np.full(7, 0.5), MaxProduct())
    x_hat, sets, cols = binding_columns(p)
    assert sets == [list(range(7))] * 7
    assert cols == [[(i, 1.0) for i in range(7)]] * 7
    leaves = []
    cover_search(cols, np.zeros(7), lambda x: leaves.append(x.copy()))
    assert minimal_set_key(leaves) == minimal_set_key(np.eye(7))
    leaves = []
    cover_search(cols, np.zeros(7), lambda x: leaves.append(x.copy()),
                 prune=lambda x: x[0] > 0)
    assert minimal_set_key(leaves) == minimal_set_key(np.eye(7)[1:])


@pytest.mark.parametrize("method", METHODS, ids=["lambda", "pattern", "archimedean"])
def test_cap_allows_streaming(method):
    # 7^7 binding combinations fit the cap; the first raised row covers every
    # column, so the search sees seven leaves, not 823 543 combinations
    p = FreProblem(np.full((7, 7), 0.5), np.full(7, 0.5), MaxProduct())
    res = method(p, cap=7 ** 7)
    assert minimal_set_key(res.minimals) == minimal_set_key(np.eye(7))


def test_archimedean_requires_archimedean():
    p = FreProblem([[0.5]], [0.5])
    with pytest.raises(ValueError):
        minimal_solutions_archimedean(p)


def grid_system(rng, m, n, steps, comp):
    """A feasible system: A, then x, drawn as integers over steps, b = x∘A."""
    A = rng.integers(0, steps + 1, (m, n)) / steps
    x = rng.integers(0, steps + 1, m) / steps
    return FreProblem(A, FreProblem(A, np.zeros(n), comp).lhs(x), comp)


@pytest.mark.parametrize("seed", range(12))
def test_methods_agree_bit_for_bit(seed):
    p = grid_system(np.random.default_rng(seed), 16, 16, 100, MaxProduct())
    first, *rest = [method(p).minimals for method in METHODS]
    for other in rest:
        assert len(other) == len(first)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(first, other))


def test_pattern_forces_singletons_before_branching():
    # 40×40 max-min on a 0.1 grid: visiting constraints by decreasing b took
    # 36 054 leaves; forcing the one-row constraints first needs under 1000
    p = grid_system(np.random.default_rng(0), 40, 40, 10, MaxMin())
    assert len(minimal_solutions_matrix_pattern(p, cap=1000).minimals) == 284


@given(st.integers(1, 4), st.integers(1, 4), st.sampled_from([PRODUCT, LUKASIEWICZ]),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_archimedean_matches_buildup(m, n, t, seed):
    p = grid_system(np.random.default_rng(seed), m, n, 4, SupT(t))
    assert (minimal_set_key(minimal_solutions_archimedean(p).minimals)
            == minimal_set_key(archimedean_buildup(p)))


def test_gavalec_certificate_examples():
    # unique: x = b on the identity
    cert = gavalec_certificate(np.eye(2), [0.4, 0.7])
    assert cert.solvable
    # x = (0.4, 0.7) solves; but x_2 can also exceed? identity row i:
    # max(min(1, x_i), min(0, x_other)) = x_i -> unique
    assert cert.unique
    # unsolvable: row of zeros against positive b
    cert = gavalec_certificate(np.array([[0.0, 0.0], [1.0, 1.0]]), [0.5, 0.5])
    assert not cert.solvable
    # continuum: a > b everywhere in one row's support
    cert = gavalec_certificate(np.array([[0.9, 0.9]]), [0.0])
    assert cert.solvable and cert.unique  # only x = (0, 0) works
    cert = gavalec_certificate(np.array([[0.9, 0.9]]), [0.5])
    assert cert.solvable and not cert.unique


def test_gavalec_touch_count():
    A = np.random.default_rng(3).random((4, 5))
    b = np.array([np.max(np.minimum(A[i], np.linspace(0, 1, 5))) for i in range(4)])
    cert = gavalec_certificate(A, b)
    assert cert.cell_touches <= 2 * A.size


@pytest.mark.parametrize("A, b", [([[np.nan, 0.5]], [0.5]), ([[2.0, 0.5]], [0.5]),
                                  ([[0.5, 0.5]], [np.inf]), ([[0.5, 0.5]], [-0.2])])
def test_gavalec_certificate_rejects_bad_grades(A, b):
    with pytest.raises(ValueError, match="must be finite and lie in"):
        gavalec_certificate(A, b)


def test_classify_attainability():
    p = FreProblem([[0.5, 0.3], [0.7, 0.3]], [0.5, 0.3])
    labels, overall = classify_attainability(max_solution(p), p)
    assert overall
    assert all(labels)


def test_greatest_solution_relation():
    T = Relation([[0.6, 0.2], [0.3, 0.6]])
    U = greatest_solution_relation(T, T)
    assert U is not None
    # identity solves R∘T=T, and U dominates every solution
    assert np.all(U.cells >= np.eye(2) - 1e-9)


def test_constrained_greatest_symmetric():
    T = Relation([[0.6, 0.2], [0.3, 0.6]])
    U = constrained_greatest(T, T, "symmetric")
    if U is not None:
        assert np.allclose(U.cells, U.cells.T)
    # a row mismatch is an error, as in greatest_solution_relation, not "no solution"
    with pytest.raises(ValueError, match=r"row mismatch: \(2, 1\) vs \(1, 1\)"):
        constrained_greatest([[0.5], [0.3]], [[0.5]], "symmetric")


def test_kagei_type1():
    pairs = [(np.array([0.9, 0.3, 0.5]), 0), (np.array([0.2, 0.8, 0.1]), 1)]
    R = kagei_type1(pairs, 3)
    for p_vec, x_star in pairs:
        vals = np.minimum(p_vec, R)
        assert np.max(vals) == pytest.approx(vals[x_star])


def test_kagei_type2_contradiction():
    pairs = [(np.array([1.0, 0.0]), 0), (np.array([1.0, 0.0]), 1)]
    with pytest.raises(ValueError):
        kagei_type2_unique(pairs, 2, 2)


def test_kagei_type2_strict_peak():
    pairs = [(np.array([1.0, 0.2]), 0), (np.array([0.2, 1.0]), 1)]
    R = kagei_type2_unique(pairs, 2, 2)
    for p_vec, y_star in pairs:
        img = np.array([max(min(p_vec[x], R[x, y]) for x in range(2))
                        for y in range(2)])
        assert np.argmax(img) == y_star
        others = np.delete(img, y_star)
        assert np.all(others < img[y_star])


def test_specificity_shift_identity_baseline():
    rng = np.random.default_rng(5)
    xs = rng.random((3, 2))
    R0 = rng.random((2, 2))
    ys = np.array([[max(min(x[k], R0[k, j]) for k in range(2)) for j in range(2)]
                   for x in xs])
    rel, alpha, beta, mse = specificity_shift_fit(
        list(zip(xs, ys)), MIN, [0.0, 0.2], [0.8, 1.0])
    assert mse <= 1e-12  # untransformed data is exactly reproducible


def test_sre_solvability_criteria():
    # one exclusive support point per distinct value -> sup-t criterion holds
    prem = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    assert sre_solvability_criteria(prem, "sup-t")
    assert sre_solvability_criteria(prem, "inf-rho")
    shared = [np.array([1.0, 1.0]), np.array([1.0, 1.0])]
    assert not sre_solvability_criteria(shared, "sup-t")
    with pytest.raises(ValueError):
        sre_solvability_criteria(prem, "bogus")
