"""The array forms and the two composition kernels against cell-by-cell loops.

Grids are drawn with ties on purpose: cells at 0 and 1, equal cells, and
cells TOL/2 above or below each other, where the tolerance tests of the
residua and of the Goedel implication switch branches.
"""

import math
from types import SimpleNamespace

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
                      generator_cells, inf_implication_loops, sup_t_loops)

# scalar-only generator (math.log): f and f_inv take one Python float at a time
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


# shapes() keeps mid·cols <= 36, so 36 splits the rows of P but never j,
# and 7 splits both
@pytest.fixture(params=[relations.CHUNK_CELLS, 36, 7],
                ids=["one-chunk", "row-blocks", "many-chunks"])
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


def recording(op, sizes):
    """op, recording the cell count of each temporary it returns."""
    def wrapped(a, b):
        out = op(a, b)
        sizes.append(np.size(out))
        return out
    return wrapped


@pytest.mark.parametrize("chunk_cells, rows, mid, cols", [
    (None, 200, 40, 200),  # rows·cols > CHUNK_CELLS, one j slice per block of rows
    (None, 3, 300, 150),   # mid·cols > CHUNK_CELLS, slices of j
    (7, 5, 6, 4),          # rows and j split down to a few cells
    (7, 3, 4, 9),          # cols > CHUNK_CELLS: one row and one j at a time
])
def test_kernel_temporaries_stay_within_the_block_bound(chunk_cells, rows, mid, cols,
                                                        monkeypatch):
    if chunk_cells is not None:
        monkeypatch.setattr(relations, "CHUNK_CELLS", chunk_cells)
    bound = max(relations.CHUNK_CELLS, cols)
    rng = np.random.default_rng(7)
    P, Q = tie_grid(rng, (rows, mid)), tie_grid(rng, (mid, cols))
    kernels = [(lambda op: relations.sup_t_compose(SimpleNamespace(apply=op), P, Q),
                PRODUCT.apply),
               (lambda op: relations.inf_implication_compose(op, P, Q), godel)]
    for kernel, op in kernels:
        sizes = []
        blocked = kernel(recording(op, sizes))
        assert len(sizes) > 1 and max(sizes) <= bound
        with monkeypatch.context() as m:  # the whole product in one block
            m.setattr(relations, "CHUNK_CELLS", rows * mid * cols)
            assert blocked.tobytes() == kernel(op).tobytes()


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


# (f, f_inv): Hamacher's with no inverse, so t runs a bisection on f inside
# the residuum's; -log with exp; 1 - u² with a finite f(0) = 1
GENERATOR_PAIRS = {
    "hamacher": (lambda u: (1.0 - u) / u, None),
    "log": (lambda u: -math.log(u), lambda v: math.exp(-v)),
    "square": (lambda u: 1.0 - u * u, lambda v: math.sqrt(1.0 - v)),
}


@pytest.mark.parametrize("name", sorted(GENERATOR_PAIRS))
def test_generator_forms_match_cell_loops(name):
    # tie grades plus 0 and the tiny grades where f(a) + f(b) overflows
    f, f_inv = GENERATOR_PAIRS[name]
    g = GeneratorTNorm(f, f_inv, name=name)
    grades = np.concatenate([tie_grid(np.random.default_rng(6), 10), [0.0, 5e-324, 1e-308]])
    a, b = np.meshgrid(grades, grades)
    t, residuum, section = generator_cells(f, f_inv, a, b)
    assert np.array_equal(g.apply(a, b), t)
    assert np.array_equal(g.apply_residuum(a, b), residuum)
    assert np.array_equal(g.min_section_solution(a, b), section)


def counted(fn, calls):
    """fn, recording for each call whether it was given an array."""
    def wrapped(v):
        calls.append(isinstance(v, np.ndarray))
        return fn(v)
    return wrapped


def test_array_generator_is_called_once_per_array():
    # an 8×8×8 sup-t compose is one apply: f once on each operand, then once
    # per step of the 60-step bisection that stands in for f's inverse
    calls = []
    g = GeneratorTNorm(counted(GENERATOR_PAIRS["hamacher"][0], calls), name="hamacher")
    calls.clear()
    rng = np.random.default_rng(8)
    P, Q = tie_grid(rng, (8, 8)), tie_grid(rng, (8, 8))
    out = compose(SupT(g), P, Q).cells
    assert calls == [True] * (2 + 60)
    assert np.array_equal(out, sup_t_loops(g, P, Q))


# whether f, and f_inv, is called one Python float at a time: math.log,
# math.exp and math.sqrt refuse an array
PER_CELL = {"hamacher": (False, None), "log": (True, True), "square": (False, True)}


@pytest.mark.parametrize("name", sorted(GENERATOR_PAIRS))
def test_generator_calls_a_scalar_only_function_per_cell(name):
    f, f_inv = GENERATOR_PAIRS[name]
    f_calls, inv_calls = [], []
    g = GeneratorTNorm(counted(f, f_calls), f_inv and counted(f_inv, inv_calls), name=name)
    f_calls.clear()
    inv_calls.clear()
    a, b = np.meshgrid(*2 * [np.linspace(0.1, 0.9, 9)])
    g.apply(a, b)
    for calls, per_cell in zip((f_calls, inv_calls), PER_CELL[name]):
        if per_cell is not None:
            assert calls and set(calls) == {not per_cell}


@pytest.mark.parametrize("array_form", [
    lambda u: np.zeros(3),                              # the wrong shape
    lambda u: (1.0 - u) / u * (1.0 + 2.0 ** -52),       # other bits
    lambda u: ((1.0 - u) / u).tolist(),                 # not an array
    lambda u: ((1.0 - u) / u).astype(np.float32),       # another dtype
])
def test_generator_falls_back_unless_the_array_form_is_exact(array_form):
    hamacher = GENERATOR_PAIRS["hamacher"][0]
    calls = []

    def f(u):
        return hamacher(u) if isinstance(u, float) else array_form(u)

    g = GeneratorTNorm(counted(f, calls), name="hamacher-or-not")
    calls.clear()
    grades = np.concatenate([tie_grid(np.random.default_rng(9), 10), [0.0, 5e-324, 1e-308]])
    a, b = np.meshgrid(grades, grades)
    assert np.array_equal(g.apply(a, b), generator_cells(hamacher, None, a, b)[0])
    assert calls and not any(calls)


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
