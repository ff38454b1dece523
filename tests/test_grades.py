import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relq.grades import (DRASTIC, LUKASIEWICZ, MIN, PRODUCT, TOL,
                         GeneratorTNorm, Interval, NoSolution,
                         Unique, check_grades, crisp_material, equality_index, godel,
                         implication_by_name, kleene_dienes,
                         lukasiewicz_implication, q_metric,
                         solve_scalar_t, subsethood, tnorm_by_name)

UNIT = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
ALL_TNORMS = [MIN, PRODUCT, LUKASIEWICZ, DRASTIC]
CONTINUOUS = [MIN, PRODUCT, LUKASIEWICZ]
# Archimedean t-norms from their generators: Hamacher's (1 - x)/x with no
# inverse, so t and its residuum run by bisection, as the bench builds it;
# and the product's -log with its inverse exp(-v)
GENERATORS = [GeneratorTNorm(lambda x: (1.0 - x) / x, name="hamacher"),
              GeneratorTNorm(lambda x: -math.log(x), f_inv=lambda v: math.exp(-v),
                             name="product-generator")]


@pytest.mark.parametrize("t", ALL_TNORMS + GENERATORS)
@given(a=UNIT, b=UNIT, c=UNIT)
@settings(max_examples=100, deadline=None)
def test_tnorm_axioms(t, a, b, c):
    assert abs(t(a, b) - t(b, a)) <= TOL
    assert abs(t(a, t(b, c)) - t(t(a, b), c)) <= 1e-9
    assert abs(t(a, 1.0) - a) <= TOL
    if b <= c:
        assert t(a, b) <= t(a, c) + TOL


@pytest.mark.parametrize("t", CONTINUOUS + GENERATORS)
@given(a=UNIT, b=UNIT, x=UNIT)
@settings(max_examples=100, deadline=None)
def test_residuum_adjunction(t, a, b, x):
    w = t.residuum(a, b)
    # residuum is the largest x with t(a, x) <= b
    assert t(a, w) <= b + 1e-9
    if t(a, x) <= b - 1e-9:
        assert x <= w + 1e-9


@given(a=UNIT, b=UNIT, x=UNIT)
@settings(max_examples=100, deadline=None)
def test_drastic_residuum_is_supremum(a, b, x):
    # drastic is not left-continuous, so the sup is not always attained;
    # the residuum is still the least upper bound of {x : t(a,x) <= b}
    t = DRASTIC
    w = t.residuum(a, b)
    if t(a, x) <= b + 1e-9:
        assert x <= w + 1e-9
    if x < w - 1e-9:
        assert t(a, x) <= b + 1e-9


def test_closed_form_residua():
    assert MIN.residuum(0.3, 0.5) == 1.0
    assert MIN.residuum(0.5, 0.3) == 0.3
    assert PRODUCT.residuum(0.5, 0.3) == pytest.approx(0.6)
    assert LUKASIEWICZ.residuum(0.7, 0.3) == pytest.approx(0.6)
    assert DRASTIC.residuum(1.0, 0.3) == 0.3
    assert DRASTIC.residuum(0.9, 0.3) == 1.0


def test_generator_tnorm_matches_product():
    g = GeneratorTNorm(lambda u: -math.log(max(u, 1e-300)),
                       f_inv=lambda v: math.exp(-v), name="gen-product")
    for a in np.linspace(0, 1, 11):
        for b in np.linspace(0, 1, 11):
            assert g(a, b) == pytest.approx(a * b, abs=1e-7)
            assert g.residuum(a, b) == pytest.approx(PRODUCT.residuum(a, b), abs=1e-6)


def test_tnorm_by_name():
    assert tnorm_by_name("min") is MIN
    assert tnorm_by_name("product") is PRODUCT
    assert tnorm_by_name("lukasiewicz") is LUKASIEWICZ
    with pytest.raises(ValueError):
        tnorm_by_name("nope")


def test_implications():
    assert godel(0.3, 0.5) == 1.0
    assert godel(0.5, 0.3) == 0.3
    assert lukasiewicz_implication(0.7, 0.3) == pytest.approx(0.6)
    assert kleene_dienes(0.6, 0.4) == pytest.approx(0.4)
    assert crisp_material(1, 0) == 0.0
    assert crisp_material(0, 0) == 1.0
    imp = implication_by_name("godel")
    assert imp(0.5, 0.2) == 0.2
    res = implication_by_name("residuum", tnorm=PRODUCT)
    a, b = np.meshgrid(*2 * [np.linspace(0.0, 1.0, 11)])
    assert res(a, b).tobytes() == PRODUCT.residuum(a, b).tobytes()
    assert res(0.5, 0.25) == pytest.approx(0.5)


def test_greatest_solution_operators():
    # Sanchez's alpha-operator is Goedel's implication, the residuum of min;
    # max-product's is the residuum of product
    assert godel(0.3, 0.6) == 1.0
    assert godel(0.6, 0.3) == 0.3
    assert MIN.residuum(0.6, 0.3) == 0.3
    assert PRODUCT.residuum(0.08, 0.0096) == pytest.approx(0.12)
    assert PRODUCT.residuum(0.3, 0.6) == 1.0


def test_solve_scalar_cases():
    assert isinstance(solve_scalar_t(MIN, 0.3, 0.6), NoSolution)
    r = solve_scalar_t(MIN, 0.6, 0.3)
    assert isinstance(r, Interval) and r.max_so == pytest.approx(0.3)
    r = solve_scalar_t(MIN, 0.3, 0.3)
    assert isinstance(r, Interval)
    assert r.max_so == pytest.approx(1.0) and r.min_so == pytest.approx(0.3)
    r = solve_scalar_t(PRODUCT, 0.5, 0.3)
    assert isinstance(r, Unique) and r.value == pytest.approx(0.6)
    r = solve_scalar_t(PRODUCT, 0.0, 0.0)
    assert isinstance(r, Interval) and r.max_so == 1.0 and r.min_so == 0.0
    r = solve_scalar_t(LUKASIEWICZ, 0.4, 0.0)
    assert isinstance(r, Interval)
    assert r.max_so == pytest.approx(0.6) and r.min_so == 0.0
    with pytest.raises(ValueError):
        solve_scalar_t(DRASTIC, 0.5, 0.2)


@pytest.mark.parametrize("t", CONTINUOUS)
@given(a=UNIT, b=UNIT)
@settings(max_examples=100, deadline=None)
def test_solve_scalar_solutions_actually_solve(t, a, b):
    r = solve_scalar_t(t, a, b)
    if isinstance(r, Unique):
        assert abs(t(a, r.value) - b) <= 1e-7
    elif isinstance(r, Interval):
        assert abs(t(a, r.max_so) - b) <= 1e-7
        assert abs(t(a, r.min_so) - b) <= 1e-7


def test_equality_index_and_subsethood():
    assert equality_index(0.4, 0.4) == 1.0
    assert equality_index(0.2, 0.7) == pytest.approx(0.5)
    A = np.array([0.2, 0.5, 0.9])
    B = np.array([0.4, 0.5, 0.3])
    assert subsethood(MIN, A, A) == 1.0
    assert subsethood(MIN, A, B) == pytest.approx(0.3)


@pytest.mark.parametrize("t", [MIN, LUKASIEWICZ])
@given(st.data())
@settings(max_examples=100, deadline=None)
def test_q_metric_axioms(t, data):
    n = data.draw(st.integers(2, 4))
    vec = st.lists(UNIT, min_size=n, max_size=n)
    A = np.array(data.draw(vec))
    B = np.array(data.draw(vec))
    C = np.array(data.draw(vec))
    dAB = q_metric(t, A, B)
    assert 0.0 <= dAB <= 1.0
    assert q_metric(t, A, A) <= 1e-9
    assert abs(dAB - q_metric(t, B, A)) <= 1e-9
    assert dAB <= q_metric(t, A, C) + q_metric(t, C, B) + 1e-9


BAND = st.floats(min_value=-TOL, max_value=1 + TOL)
OUTSIDE = st.one_of(st.floats(max_value=-2 * TOL), st.floats(min_value=1 + 2 * TOL),
                    st.just(math.nan))


@given(v=BAND)
@settings(max_examples=200, deadline=None)
def test_check_grades_clamps_the_band(v):
    # a grade within TOL of [0, 1] comes back clamped, as a float for a
    # float and as an array for an array
    got = check_grades(v)
    assert type(got) is float and got == min(1.0, max(0.0, v))
    arr = check_grades(np.array([[0.5, v]]))
    assert isinstance(arr, np.ndarray) and arr.tolist() == [[0.5, got]]


@given(v=OUTSIDE)
@settings(max_examples=200, deadline=None)
def test_check_grades_rejects_beyond_the_band(v):
    with pytest.raises(ValueError, match="x must be finite and lie in"):
        check_grades(v, "x")
    with pytest.raises(ValueError, match="x must be finite and lie in"):
        check_grades(np.array([[0.5, v]]), "x")
