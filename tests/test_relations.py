import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relq.grades import MIN, PRODUCT, godel
from relq.optimize import pseudo_char_matrix
from relq.products import explain_at_least_k, triangle_product_subjects
from relq.relations import (InfImplication, MaxMin, MaxProduct, Relation,
                            SupT, alpha_cut, as_grid, compose, composition_by_name,
                            identity, relation_properties, relational_join,
                            transitive_closure, transpose)
from relq.solve import constrained_greatest, greatest_solution_relation, irreflexivity_condition

UNIT = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def grids(max_side=4):
    return st.integers(1, max_side).flatmap(
        lambda r: st.integers(1, max_side).flatmap(
            lambda c: st.lists(
                st.lists(UNIT, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


def test_relation_basics():
    R = Relation([[0.2, 0.5], [1.0, 0.0]])
    assert R.shape == (2, 2)
    assert R[0, 1] == 0.5
    with pytest.raises((ValueError, AttributeError, TypeError)):
        R.cells[0, 0] = 0.9
    with pytest.raises(ValueError):
        Relation([[0.5], [0.2, 0.3]])
    with pytest.raises(ValueError):
        Relation([[1.5]])


@pytest.mark.parametrize("cells, rows", [
    ([[0.5], [0.2, 0.3]], "row 1 has length 2"),
    ([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7], [0.8, 0.9]],
     "row 2 has length 1, row 3 has length 2"),
    ([[0.1, 0.2], 0.3], "row 1 has length 1"),
], ids=["longer-row", "two-bad-rows", "scalar-row"])
def test_ragged_grid_names_the_rows(cells, rows):
    for make in (Relation, as_grid):
        with pytest.raises(ValueError, match=f"ragged grid: row 0 has length .* but {rows}"):
            make(cells)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.5, -0.5])
def test_relation_rejects_bad_grades(bad):
    with pytest.raises(ValueError, match="relation cells must be finite and lie in"):
        Relation([[bad, 0.5]])


GRID_CALLERS = {
    "compose-max-min": lambda g: compose(MaxMin(), g, [[0.5]]),
    "compose-max-product": lambda g: compose(MaxProduct(), [[0.3]], g),
    "greatest_solution_relation": lambda g: greatest_solution_relation(g, [[0.5]]),
    "constrained_greatest": lambda g: constrained_greatest(g, [[0.5]], "symmetric"),
    "alpha_cut": lambda g: alpha_cut(g, 0.5),
    "relational_join": lambda g: relational_join([[0.5]], g),
    "triangle_product_subjects": lambda g: triangle_product_subjects(g, godel),
    "explain_at_least_k": lambda g: explain_at_least_k(g, [0.5], 1),
    "pseudo_char_matrix": lambda g: pseudo_char_matrix(g, [0.5]),
    "irreflexivity_condition": lambda g: irreflexivity_condition(g, [[0.0]]),
}


@pytest.mark.parametrize("bad", [np.nan, 2.0, -0.5])
@pytest.mark.parametrize("caller", sorted(GRID_CALLERS))
def test_grid_entry_points_reject_bad_grades(caller, bad):
    with pytest.raises(ValueError, match=r"must be finite and lie in \[0, 1\]"):
        GRID_CALLERS[caller]([[bad]])


def test_compose_leaves_a_raw_operand_writeable_and_unchanged():
    P = np.array([[0.2, 0.7], [1.0, 0.0]])
    before = P.copy()
    compose(MaxMin(), P, [[0.5], [0.9]])
    assert P.flags.writeable and np.array_equal(P, before)
    # an in-range float grid is used as it is; a cell in the TOL band outside
    # [0, 1] is clamped in a copy, never in the caller's array
    assert as_grid(P) is P
    Q = np.array([[1.0 + 1e-12, 0.5]])
    assert as_grid(Q)[0, 0] == 1.0 and Q[0, 0] == 1.0 + 1e-12


@pytest.mark.parametrize("source", ["2-d", "1-d", "view", "kernel output"])
def test_relation_never_shares_a_writeable_array(source):
    arr = {"2-d": np.array([[0.2, 0.7], [1.0, 0.0]]),
           "1-d": np.array([0.2, 0.7]),
           "view": np.array([[0.2, 0.7, 0.4], [1.0, 0.0, 0.3]])[:, :2],
           "kernel output": compose(MaxMin(), [[0.2, 0.7]], identity(2)).cells}[source]
    R = Relation(arr)
    before = R.cells.copy()
    if arr.flags.writeable:
        arr[0, ...] = 0.9
    assert np.array_equal(R.cells, before) and not R.cells.flags.writeable


@given(grids())
@settings(max_examples=50, deadline=None)
def test_csv_json_roundtrip(grid):
    R = Relation(grid)
    assert Relation.from_csv(R.to_csv()) == R
    assert Relation.from_json(R.to_json()) == R


def test_compose_identity():
    R = Relation(np.random.default_rng(0).random((3, 4)))
    assert compose(MaxMin(), identity(3), R) == R
    assert compose(MaxProduct(), R, identity(4)) == R


def test_compose_known_values():
    P = Relation([[0.8, 0.0, 0.0, 0.0],
                  [0.8, 0.3, 0.3, 0.0],
                  [0.2, 0.4, 0.4, 0.9]])
    q = np.array([[0.6], [0.5], [0.7], [0.5]])
    out = compose(MaxMin(), P, q)
    assert np.allclose(out.cells[:, 0], [0.6, 0.6, 0.5])


def test_compose_dim_mismatch():
    with pytest.raises(ValueError):
        compose(MaxMin(), Relation([[0.1, 0.2]]), Relation([[0.3]]))


@given(grids(3), grids(3))
@settings(max_examples=60, deadline=None)
def test_supt_min_equals_maxmin(P, Q):
    P = Relation(P)
    if P.shape[1] != len(Q):
        Q = [row[: len(Q[0])] for row in Q]
        return
    Q = Relation(Q)
    a = compose(MaxMin(), P, Q)
    b = compose(SupT(MIN), P, Q)
    assert a == b
    assert compose(MaxProduct(), P, Q) == compose(SupT(PRODUCT), P, Q)


def test_composition_by_name():
    assert isinstance(composition_by_name("max-min"), MaxMin)
    assert isinstance(composition_by_name("max-product"), MaxProduct)
    spec = composition_by_name("sup-t:lukasiewicz")
    assert isinstance(spec, SupT) and spec.tnorm.name == "lukasiewicz"
    with pytest.raises(ValueError):
        composition_by_name("sup-t:bogus")


def test_inf_implication_composition():
    P = Relation([[0.5, 0.9]])
    Q = Relation([[0.4], [0.9]])
    out = compose(InfImplication(), P, Q)
    # min(godel(0.5,0.4), godel(0.9,0.9)) = min(0.4, 1)
    assert out.cells[0, 0] == pytest.approx(0.4)


def test_relational_join_shape():
    P = np.random.default_rng(1).random((2, 3))
    Q = np.random.default_rng(2).random((3, 4))
    J = relational_join(P, Q)
    assert J.shape == (2, 3, 4)
    assert J[1, 2, 3] == pytest.approx(min(P[1, 2], Q[2, 3]))


def test_alpha_cut():
    R = Relation([[0.2, 0.5], [0.9, 0.5]])
    assert np.array_equal(alpha_cut(R, 0.5).cells, [[0, 1], [1, 1]])
    assert np.array_equal(alpha_cut(R, 0.5, strong=True).cells, [[0, 0], [1, 0]])


def test_relation_properties():
    R = Relation([[1.0, 0.3], [0.3, 1.0]])
    props = relation_properties(R)
    assert props["reflexive"] and props["symmetric"]
    assert not props["antireflexive"]
    S = Relation([[0.0, 0.8], [0.0, 0.0]])
    props = relation_properties(S)
    assert props["antireflexive"] and props["antisymmetric"]


def test_transitive_closure():
    R = Relation([[0.0, 0.8, 0.0],
                  [0.0, 0.0, 0.6],
                  [0.0, 0.0, 0.0]])
    C = transitive_closure(R)
    assert C[0, 2] == pytest.approx(0.6)
    # closure is max-min transitive
    assert relation_properties(C)["maxmin_transitive"]
    # closure of a transitive relation is itself
    assert transitive_closure(C) == C


@given(grids(3))
@settings(max_examples=40, deadline=None)
def test_transpose_involution(grid):
    R = Relation(grid)
    assert transpose(transpose(R)) == R
