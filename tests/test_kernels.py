"""The array forms and the two composition kernels against cell-by-cell loops.

Grids are drawn with ties on purpose: cells at 0 and 1, equal cells, and
cells TOL/2 above or below each other, where the tolerance tests of the
residua and of the Goedel implication switch branches.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relq import relations
from relq.grades import (DRASTIC, LUKASIEWICZ, MIN, PRODUCT, TOL, GeneratorTNorm,
                         Residuum, crisp_material, godel, kleene_dienes,
                         lukasiewicz_implication)
from relq.learn import TrainingSet, delta_rule_B, delta_rule_K, sup_t_image
from relq.relations import InfImplication, MaxMin, MaxProduct, SupT, compose
from relq.solve import FreProblem, max_solution

from .oracles import (SCALAR_IMPLICATIONS, delta_rule_B_loops, delta_rule_K_loops,
                      inf_implication_loops, sup_t_loops)

# scalar-only generator (math.log), so its array forms run cell by cell
GEN = GeneratorTNorm(lambda u: -math.log(u), f_inv=lambda v: math.exp(-v),
                     f_zero=math.inf, name="gen-product")
TNORMS = [MIN, PRODUCT, LUKASIEWICZ, DRASTIC, GEN]
CONTINUOUS = [MIN, PRODUCT, LUKASIEWICZ, GEN]
IMPLICATIONS = {
    "godel": godel,
    "lukasiewicz": lukasiewicz_implication,
    "kleene-dienes": kleene_dienes,
}
LEVELS = np.array([0.0, 0.2, 0.25, 0.5, 0.6, 0.75, 1.0])


def tie_grid(rng, shape):
    """Cells from a few levels, a third of them nudged by TOL/2 either way."""
    g = rng.choice(LEVELS, size=shape) + rng.choice([-TOL / 2, 0.0, 0.0, TOL / 2], size=shape)
    return np.clip(g, 0.0, 1.0)


@pytest.fixture(params=[relations.CHUNK_CELLS, 7], ids=["one-chunk", "many-chunks"])
def chunk(request, monkeypatch):
    monkeypatch.setattr(relations, "CHUNK_CELLS", request.param)
    return request.param


def shapes(rng, count=12):
    return [tuple(int(v) for v in rng.integers(1, 7, size=3)) for _ in range(count)]


@pytest.mark.parametrize("t", TNORMS, ids=lambda t: t.name)
def test_sup_t_compose_matches_loops(t, chunk):
    rng = np.random.default_rng(1)
    for rows, mid, cols in shapes(rng):
        P, Q = tie_grid(rng, (rows, mid)), tie_grid(rng, (mid, cols))
        assert np.array_equal(compose(SupT(t), P, Q).cells, sup_t_loops(t, P, Q))
        if t is MIN:
            assert np.array_equal(compose(MaxMin(), P, Q).cells, sup_t_loops(t, P, Q))
        if t is PRODUCT:
            assert np.array_equal(compose(MaxProduct(), P, Q).cells, sup_t_loops(t, P, Q))


@pytest.mark.parametrize("name", [*IMPLICATIONS, *(f"residuum-{t.name}" for t in TNORMS)])
def test_inf_implication_compose_matches_loops(name, chunk):
    rng = np.random.default_rng(2)
    if name in IMPLICATIONS:
        imp, scalar = IMPLICATIONS[name], SCALAR_IMPLICATIONS[name]
    else:
        t = next(t for t in TNORMS if name == f"residuum-{t.name}")
        imp, scalar = Residuum(t), t.residuum
    for rows, mid, cols in shapes(rng):
        P, Q = tie_grid(rng, (rows, mid)), tie_grid(rng, (mid, cols))
        assert np.array_equal(compose(InfImplication(imp), P, Q).cells,
                              inf_implication_loops(scalar, P, Q))


def test_crisp_implication_compose_matches_loops(chunk):
    rng = np.random.default_rng(3)
    for rows, mid, cols in shapes(rng):
        P = rng.integers(0, 2, size=(rows, mid)).astype(float)
        Q = rng.integers(0, 2, size=(mid, cols)).astype(float)
        assert np.array_equal(compose(InfImplication(crisp_material), P, Q).cells,
                              inf_implication_loops(SCALAR_IMPLICATIONS["crisp"], P, Q))


@pytest.mark.parametrize("t", CONTINUOUS, ids=lambda t: t.name)
def test_max_solution_matches_loops(t, chunk):
    rng = np.random.default_rng(4)
    for m, n, _ in shapes(rng):
        A, x0 = tie_grid(rng, (m, n)), tie_grid(rng, m)
        b = sup_t_loops(t, x0.reshape(1, -1), A)[0]
        x_hat = max_solution(FreProblem(A, b, SupT(t)))
        assert x_hat is not None
        assert np.array_equal(x_hat, inf_implication_loops(t.residuum, A, b[:, None])[:, 0])


@pytest.mark.parametrize("t", CONTINUOUS, ids=lambda t: t.name)
def test_delta_rules_match_loops(t):
    rng = np.random.default_rng(5)
    for p, n, m in shapes(rng):
        A, W0 = tie_grid(rng, (p, n)), tie_grid(rng, (n, m))
        for B in (sup_t_image(t, A, W0), tie_grid(rng, (p, m))):
            res = delta_rule_K(TrainingSet(A, B), t)
            W, fallback = delta_rule_K_loops(t, A, B)
            assert np.array_equal(res.W, W)
            assert res.fallback_cells == fallback
            if t is MIN:
                assert np.array_equal(delta_rule_B(TrainingSet(A, B)).W, delta_rule_B_loops(A, B))


# includes the drastic t-norm's threshold 1 - 1e-15
TIES = st.sampled_from([0.0, 1.0, 0.5, 0.5 + TOL / 2, 0.5 - TOL / 2, 1.0 - TOL / 2, TOL / 2,
                       1.0 - 1e-15])
GRADE = st.one_of(TIES, st.floats(0.0, 1.0, allow_nan=False))


@pytest.mark.parametrize("t", TNORMS, ids=lambda t: t.name)
@given(pairs=st.lists(st.tuples(GRADE, GRADE), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_tnorm_array_forms_equal_scalar_forms(t, pairs):
    a, b = np.array(pairs).T
    assert np.array_equal(t.apply(a, b), [t(x, y) for x, y in pairs])
    assert np.array_equal(t.apply_residuum(a, b), [t.residuum(x, y) for x, y in pairs])


@pytest.mark.parametrize("name", list(IMPLICATIONS))
@given(pairs=st.lists(st.tuples(GRADE, GRADE), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_implication_array_form_equals_scalar_form(name, pairs):
    a, b = np.array(pairs).T
    imp, scalar = IMPLICATIONS[name], SCALAR_IMPLICATIONS[name]
    assert np.array_equal(imp(a, b), [scalar(x, y) for x, y in pairs])
    assert all(imp(x, y) == scalar(x, y) and type(imp(x, y)) is float for x, y in pairs)


@given(pairs=st.lists(st.tuples(st.sampled_from([0.0, 1.0]), st.sampled_from([0.0, 1.0])),
                      min_size=1, max_size=8))
@settings(max_examples=30, deadline=None)
def test_crisp_array_form_equals_scalar_form(pairs):
    a, b = np.array(pairs).T
    scalar = SCALAR_IMPLICATIONS["crisp"]
    assert np.array_equal(crisp_material(a, b), [scalar(x, y) for x, y in pairs])
    with pytest.raises(ValueError, match="binary"):
        crisp_material(a, np.full_like(b, 0.5))
