"""The array forms and the two composition kernels against cell-by-cell loops.

Grids are drawn with ties on purpose: cells at 0 and 1, equal cells, and
cells TOL/2 above or below each other, where the tolerance tests of the
residua and of the Goedel implication switch branches.
"""

import math
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relq import relations
from relq.grades import (DRASTIC, LUKASIEWICZ, MIN, PRODUCT, TOL, GeneratorTNorm,
                         crisp_material, godel, kleene_dienes, lukasiewicz_implication)
from relq.learn import TrainingSet, delta_rule_B, delta_rule_K, sup_t_image
from relq.relations import InfImplication, MaxMin, MaxProduct, SupT, compose
from relq.solve import FreProblem, max_solution

from .oracles import (SCALAR_IMPLICATIONS, delta_rule_B_loops, delta_rule_K_loops,
                      generator_cells, inf_implication_loops, sup_t_loops)

# scalar-only generator (math.log): f and f_inv take one Python float at a time
GEN = GeneratorTNorm(lambda u: -math.log(u), f_inv=lambda v: math.exp(-v), name="gen-product")
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
        imp = scalar = t.residuum
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


@contextmanager
def phases(monkeypatch):
    """Which phases of the sorted sup_t_compose run inside the ``with``: the
    per-cell phase on at least one live cell, and the hand-over to the plain
    kernel (``_chunked``, which the unsorted path also calls)."""
    ran = {"per-cell": False, "plain": False}
    live_cells, chunked = relations._live_cells, relations._chunked

    def spy_live_cells(t, ps, order, Q, top, out, going, ends):
        ran["per-cell"] |= bool(going.any())
        return live_cells(t, ps, order, Q, top, out, going, ends)

    def spy_chunked(*args):
        ran["plain"] = True
        return chunked(*args)

    with monkeypatch.context() as m:
        m.setattr(relations, "_live_cells", spy_live_cells)
        m.setattr(relations, "_chunked", spy_chunked)
        yield ran


@pytest.mark.parametrize("chunk_cells, rows, mid, cols", [
    (None, 200, 40, 200),  # rows·cols > CHUNK_CELLS, one j slice per block of rows
    (None, 3, 300, 150),   # mid·cols > CHUNK_CELLS, slices of j
    (None, 200, 64, 200),  # sorted: rows·cols > CHUNK_CELLS, live cells go on per cell
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
        with phases(monkeypatch) as ran:
            blocked = kernel(recording(op, sizes))
        assert len(sizes) > 1 and max(sizes) <= bound
        assert ran["per-cell"] == (mid >= relations._SORT_MID and kernel is kernels[0][0])
        with monkeypatch.context() as m:  # the whole product in one block
            m.setattr(relations, "CHUNK_CELLS", rows * mid * cols)
            assert blocked.tobytes() == kernel(op).tobytes()


HAMACHER = GeneratorTNorm(lambda u: (1.0 - u) / u, name="hamacher")


def p_family(rng, family, rows, mid):
    """P for the sorted kernel: tie grades, all 1 or some rows all 1 (no
    row block stops early), one constant, or crisp with one 1 per row."""
    if family in ("ones", "ones-rows"):
        P = tie_grid(rng, (rows, mid))
        P[(rng.random(rows) < 0.5) | (family == "ones")] = 1.0
        return P
    if family == "constant":
        return np.full((rows, mid), rng.choice(LEVELS))
    if family == "crisp":
        P = np.zeros((rows, mid))
        P[np.arange(rows), rng.integers(0, mid, rows)] = 1.0
        return P
    return tie_grid(rng, (rows, mid))


@pytest.mark.parametrize("t", [*TNORMS, HAMACHER], ids=lambda t: t.name)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 12), mid=st.integers(56, 100),
       cols=st.integers(1, 12),
       family=st.sampled_from(["ties", "ones", "ones-rows", "constant", "crisp"]),
       q_family=st.sampled_from(["ties", "uniform", "zero-column"]))
@settings(max_examples=30, deadline=None)
def test_sorted_sup_t_compose_is_the_one_block_result(t, seed, rows, mid, cols, family,
                                                       q_family):
    # a 2^11 block bound puts these shapes on both sides of it, and mid on
    # both sides of the sorted kernel's threshold; uniform grades in Q leave
    # one largest cell per column, which a row of ones must reach
    rng = np.random.default_rng(seed)
    P = p_family(rng, family, rows, mid)
    Q = rng.random((mid, cols)) if q_family == "uniform" else tie_grid(rng, (mid, cols))
    if q_family == "zero-column":
        Q[:, rng.integers(cols)] = 0.0
    with pytest.MonkeyPatch.context() as m:
        m.setattr(relations, "CHUNK_CELLS", 1 << 11)
        blocked = relations.sup_t_compose(t, P, Q)
        m.setattr(relations, "CHUNK_CELLS", rows * mid * cols)
        assert blocked.tobytes() == relations.sup_t_compose(t, P, Q).tobytes()


def test_sorted_sup_t_compose_stops_early():
    # one 1 per row of P: the first slice of each row holds its 1, after which
    # t(0, max of Q) = 0 cannot raise a cell
    rng = np.random.default_rng(11)
    n = 64
    ones = rng.integers(0, n, n)
    P = np.zeros((n, n))
    P[np.arange(n), ones] = 1.0
    Q = tie_grid(rng, (n, n))
    sizes = []
    out = relations.sup_t_compose(SimpleNamespace(apply=recording(PRODUCT.apply, sizes)), P, Q)
    assert n ** 3 > relations.CHUNK_CELLS and sum(sizes) <= n ** 3 // 4
    assert out.tobytes() == Q[ones].tobytes()


@pytest.mark.parametrize("t, share", [(MIN, 0.16), (PRODUCT, 0.24)], ids=["min", "product"])
def test_sorted_sup_t_compose_stops_each_cell_on_its_own(t, share):
    # uniform grades: most cells are final after a dozen sorted positions,
    # a few go on much longer; a block of rows that waited for its last cell
    # applied t to a quarter (min) or a third (product) of the n^3 cells
    rng = np.random.default_rng(13)
    n = 192
    P, Q = rng.random((n, n)), rng.random((n, n))
    sizes = []
    out = relations.sup_t_compose(SimpleNamespace(apply=recording(t.apply, sizes)), P, Q)
    assert sum(sizes) <= share * n ** 3
    assert out.tobytes() == relations._chunked(t.apply, np.maximum, P, Q).tobytes()


@pytest.mark.parametrize("family, per_cell, plain", [
    ("uniform", True, False),  # live cells left after the dense phase
    ("crisp", False, False),   # every cell final after the first round
    ("ones", False, True),     # no row block stops by half of mid
])
def test_sorted_sup_t_compose_reaches_each_phase(family, per_cell, plain, monkeypatch):
    rng = np.random.default_rng(17)
    P, Q = p_family(rng, family, 160, 128), rng.random((128, 160))
    with phases(monkeypatch) as ran:
        out = relations.sup_t_compose(PRODUCT, P, Q)
    assert ran == {"per-cell": per_cell, "plain": plain}
    assert out.tobytes() == relations._chunked(PRODUCT.apply, np.maximum, P, Q).tobytes()


# Hamacher with its closed-form inverse, so that a one-block reference over
# 200^3 cells stays cheap; the bisection form runs in the small shapes above
HAMACHER_INV = GeneratorTNorm(lambda u: (1.0 - u) / u, f_inv=lambda v: 1.0 / (1.0 + v),
                              name="hamacher")


@pytest.mark.parametrize("t", [MIN, PRODUCT, LUKASIEWICZ, HAMACHER_INV], ids=lambda t: t.name)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(32, 200), mid=st.integers(64, 200),
       cols=st.integers(32, 200),
       family=st.sampled_from(["uniform", "ties", "ones", "ones-rows", "crisp"]))
@example(seed=1, rows=200, mid=200, cols=200, family="uniform")  # live cells go on
@example(seed=1, rows=64, mid=64, cols=200, family="ones")       # the plain kernel takes over
@settings(max_examples=8, deadline=None)
def test_sorted_sup_t_compose_is_the_one_block_result_at_size(t, seed, rows, mid, cols,
                                                               family):
    # the real block bound, so shapes like the bench's reach both phases
    # and the hand-over; uniform P is the bench's grades
    rng = np.random.default_rng(seed)
    P = rng.random((rows, mid)) if family == "uniform" else p_family(rng, family, rows, mid)
    Q = rng.random((mid, cols)) if family == "uniform" else tie_grid(rng, (mid, cols))
    sorted_out = relations.sup_t_compose(t, P, Q)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(relations, "CHUNK_CELLS", rows * mid * cols)
        assert sorted_out.tobytes() == relations.sup_t_compose(t, P, Q).tobytes()


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
            assert np.array_equal(res.W, delta_rule_K_loops(t, A, B)[0])
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


# the 1 - u² generator's t(1, 5e-9) rounds to 0
TINY = np.array([0.0, 5e-324, 1e-308, 5e-9])


@pytest.mark.parametrize("t", [*CONTINUOUS, HAMACHER,
                               GeneratorTNorm(*GENERATOR_PAIRS["square"], name="square")],
                         ids=lambda t: t.name)
def test_rule_K_residuum_repairs_every_violation(t):
    # t(w_t(a, b), a) = min(a, b), and a violation t(W, a) > b + TOL needs
    # a > b, so the one-sample-at-a-time rule never leaves a cell unrepaired
    # and is the closed form; solvable targets, unsolvable ones, and
    # solvable ones nudged by ±TOL/2 and ±0.9·TOL, on grids with tiny grades
    rng = np.random.default_rng(10)
    unsolved = []
    for _ in range(3 if t is HAMACHER else 8):
        p, n, m = (int(v) for v in rng.integers(1, 4, size=3))
        A, W0 = (np.where(rng.random(shape) < 0.3, rng.choice(TINY, size=shape),
                          tie_grid(rng, shape)) for shape in ((p, n), (n, m)))
        B = sup_t_image(t, A, W0)
        nudged = [np.clip(B + s * TOL, 0.0, 1.0) for s in (-0.9, -0.5, 0.5, 0.9)]
        for targets in (B, tie_grid(rng, (p, m)), *nudged):
            W, fallback = delta_rule_K_loops(t, A, targets)
            assert fallback == []
            res = delta_rule_K(TrainingSet(A, targets), t)
            assert np.array_equal(res.W, W)
            unsolved.append(not res.converged)
    assert any(unsolved)


def test_numpy_generator_takes_f_at_0_without_a_warning():
    # -np.log(0.0) is inf with a divide warning, which the suite turns into
    # an error: the constructor and the oracle take f(0) with it off
    f, f_inv = (lambda u: -np.log(u)), (lambda v: np.exp(-v))
    g = GeneratorTNorm(f, f_inv, name="numpy-log")
    assert g.f_zero == math.inf
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
