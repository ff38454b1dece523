import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relq.neutro import (I, NeutroGrade, NeutroRelation, R,
                         n_pseudo_char_matrix, neutro_compose, neutro_format,
                         neutro_max, neutro_min, neutro_parse,
                         nre_max_solution)
from relq.relations import MaxMin, Relation, compose
from relq.solve import FreProblem, max_solution

UNIT = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
GRADE = st.one_of(UNIT.map(R), UNIT.map(I))


@given(GRADE, st.floats(min_value=-2e-9, max_value=2e-9))
@example(R(0.5), 0.9e-9)
@settings(max_examples=200, deadline=None)
def test_equal_grades_hash_alike(g, delta):
    h = NeutroGrade(g.kind, min(1.0, max(0.0, g.coeff + delta)))
    if g == h:
        assert hash(g) == hash(h) and len({g, h}) == 1


def test_grade_normalization():
    assert I(0.0) == R(0.0)
    assert I(0.0).kind == "real"
    assert R(0.4) == 0.4
    with pytest.raises(ValueError):
        NeutroGrade("real", 1.5)
    with pytest.raises(ValueError):
        NeutroGrade("bogus", 0.5)


def test_parse_and_format():
    assert neutro_parse("0.3") == R(0.3)
    assert neutro_parse("I") == I(1.0)
    assert neutro_parse("0.4I") == I(0.4)
    assert neutro_parse(" .5 ") == R(0.5)
    assert neutro_format(I(1.0)) == "I"
    assert neutro_format(I(0.4)) == "0.4I"
    assert neutro_format(R(0.25)) == "0.25"
    with pytest.raises(ValueError):
        neutro_parse("xyz")
    with pytest.raises(ValueError):
        neutro_parse("")


@given(GRADE)
@settings(max_examples=100, deadline=None)
def test_format_parse_roundtrip(g):
    assert neutro_parse(neutro_format(g)) == g


def test_graded_min_max():
    assert neutro_min("graded", R(0.3), I(0.5)) == R(0.3)
    assert neutro_max("graded", R(0.3), I(0.5)) == I(0.5)
    # equal coefficients of different kinds are indeterminate
    assert neutro_min("graded", R(0.4), I(0.4)) == I(0.4)
    assert neutro_max("graded", R(0.4), I(0.4)) == I(0.4)
    assert neutro_min("graded", R(0.2), R(0.7)) == R(0.2)


def test_absorbing_min_max():
    assert neutro_min("absorbing", R(0.3), I(0.5)) == I(1.0)
    assert neutro_min("absorbing", R(0.0), I(0.5)) == R(0.0)
    assert neutro_max("absorbing", R(0.9), I(0.1)) == I(1.0)
    assert neutro_max("absorbing", R(0.2), R(0.7)) == R(0.7)
    with pytest.raises(ValueError):
        neutro_min("bogus", R(0.1), R(0.2))


def test_absorbing_compose_published_example():
    P = NeutroRelation([["0.3", "I", "1"],
                        ["0", "0.9", "0.2"],
                        ["0.7", "0", "0.4"]])
    Q = NeutroRelation([["0.1"], ["I"], ["0"]])
    out = neutro_compose("absorbing", P, Q)
    assert out[0, 0] == I(1.0)
    assert out[1, 0] == I(1.0)
    assert out[2, 0] == R(0.1)


def test_graded_compose_bonded_labor_matrix():
    from relq.datasets import demo_bonded_labor_nre
    out = demo_bonded_labor_nre()
    assert out == [R(0.6), I(0.8), R(0.4), I(0.4), R(0.6), R(0.9)]


def test_relation_csv_json_roundtrip():
    rel = NeutroRelation([["0.3", "I"], ["0.4I", "0"]])
    got, mode = NeutroRelation.from_csv(rel.to_csv("graded"))
    assert got == rel and mode == "graded"
    got, mode = NeutroRelation.from_json(rel.to_json("absorbing"))
    assert got == rel and mode == "absorbing"
    with pytest.raises(ValueError):
        NeutroRelation.from_csv(rel.to_csv("graded"), expect_mode="absorbing")


@pytest.mark.parametrize("mode", ["graded", "absorbing"])
@given(st.data())
@settings(max_examples=60, deadline=None)
def test_restriction_to_real_matches_fuzzy(mode, data):
    m = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(1, 3))
    Pg = [[data.draw(UNIT) for _ in range(n)] for _ in range(m)]
    Qg = [[data.draw(UNIT) for _ in range(k)] for _ in range(n)]
    Pn = NeutroRelation([[R(v) for v in row] for row in Pg])
    Qn = NeutroRelation([[R(v) for v in row] for row in Qg])
    out = neutro_compose(mode, Pn, Qn)
    assert out.all_real()
    ref = compose(MaxMin(), Relation(Pg), Relation(Qg))
    assert np.array_equal(out.to_real(), ref.cells)


@pytest.mark.parametrize("mode", ["graded", "absorbing"])
def test_nre_max_solution_restriction(mode):
    rng = np.random.default_rng(6)
    for _ in range(15):
        m, n = rng.integers(1, 4), rng.integers(1, 4)
        A = np.round(rng.random((m, n)), 2)
        x0 = np.round(rng.random(m), 2)
        b = FreProblem(A, np.zeros(n)).lhs(x0)
        An = NeutroRelation([[R(v) for v in row] for row in A])
        got = nre_max_solution(An, [R(v) for v in b], mode)
        expect = max_solution(FreProblem(A, b))
        assert got is not None
        assert np.allclose([g.coeff for g in got], expect)
        assert all(g.is_real for g in got)


def test_nre_max_solution_infeasible():
    An = NeutroRelation([["0.1"]])
    assert nre_max_solution(An, ["0.9"], "graded") is None


def test_n_pseudo_char_matrix():
    An = NeutroRelation([["0.5", "0.2I"], ["0.3", "0.3"]])
    out = n_pseudo_char_matrix(An, ["0.3", "0.3I"])
    assert out == [["1", "-I"], ["0", "I"]]


def test_n_pseudo_char_matrix_checks_b_length():
    An = NeutroRelation([["0.5", "0.2I"], ["0.3", "0.3"]])
    for b in (["0.3"], ["0.3", "0.3I", "0.1"]):
        with pytest.raises(ValueError, match="A has 2 columns but b has"):
            n_pseudo_char_matrix(An, b)
