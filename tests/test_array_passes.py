"""The neutrosophic pair rules and the solvability certificate against their
cell-by-cell loops.

Grids are tie-heavy on purpose: coefficients on a 0.25 grid, nudged by
±TOL/2 or ±0.9·TOL (inside the tie tolerance) or ±2·TOL (just outside it),
with about 40 % of the neutrosophic cells indeterminate.  Chains such as
b − 0.9·TOL, b, b + 0.9·TOL tie pairwise but not end to end, which makes the
graded folds depend on their order; the "chain" grids draw every cell from
around one level so that such chains are common.
"""

import numpy as np
import pytest

from relq.grades import TOL
from relq.neutro import (NeutroGrade, NeutroRelation, n_pseudo_char_matrix,
                         neutro_compose, neutro_max, neutro_min, nre_max_solution)
from relq.solve import gavalec_certificate

from .oracles import (gavalec_loops, n_pseudo_char_loops, neutro_compose_loops,
                      neutro_max_scalar, neutro_min_scalar, nre_max_solution_loops)

MODES = ("graded", "absorbing")
JITTER = TOL * np.array([0.0, 0.0, 0.5, -0.5, 0.9, -0.9, 2.0, -2.0])


GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
FAMILIES = {"grid": GRID, "chain": (0.5,)}


def tie_values(rng, shape, levels=GRID):
    """Coefficients from the levels, most of them jittered around the tie."""
    base = rng.choice(levels, size=shape)
    return np.clip(base + rng.choice(JITTER, size=shape), 0.0, 1.0)


def tie_grades(rng, shape, levels=GRID):
    coeff = tie_values(rng, shape, levels)
    indet = rng.random(shape) < 0.4
    return [[NeutroGrade("indet" if k else "real", c) for k, c in zip(kr, cr)]
            for kr, cr in zip(np.atleast_2d(indet).tolist(), np.atleast_2d(coeff).tolist())]


def exact(grades):
    """Kinds and coefficients, compared without the tolerance of ==."""
    return [(g.kind, g.coeff) for g in grades]


def test_scalar_rules_match_the_per_cell_rules():
    pool = tie_grades(np.random.default_rng(0), (1, 60))[0]
    pool += [NeutroGrade("real", 0.0), NeutroGrade("indet", 1e-12),
             NeutroGrade("real", TOL / 2), NeutroGrade("indet", TOL)]
    for mode in MODES:
        for a in pool:
            for b in pool:
                assert exact([neutro_min(mode, a, b)]) == exact([neutro_min_scalar(mode, a, b)])
                assert exact([neutro_max(mode, a, b)]) == exact([neutro_max_scalar(mode, a, b)])


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("mode", MODES)
def test_compose_matches_loops(mode, family):
    rng = np.random.default_rng(1)
    levels = FAMILIES[family]
    for _ in range(150):
        m, n, k = rng.integers(1, 6, size=3)
        P = NeutroRelation(tie_grades(rng, (m, n), levels))
        Q = NeutroRelation(tie_grades(rng, (n, k), levels))
        got, want = neutro_compose(mode, P, Q), neutro_compose_loops(mode, P, Q)
        assert [exact(r) for r in got.cells] == [exact(r) for r in want.cells]


def test_zero_coefficient_is_real_inside_a_fold():
    # min(0, I(TOL/2)) is the real 0, so it does not tie with TOL/2 across kinds
    P = NeutroRelation([[NeutroGrade("real", 0.0), NeutroGrade("real", TOL / 2)]])
    Q = NeutroRelation([[NeutroGrade("indet", TOL / 2)], [NeutroGrade("real", 1.0)]])
    got = neutro_compose("graded", P, Q)
    assert exact(got.cells[0]) == exact(neutro_compose_loops("graded", P, Q).cells[0])
    assert exact(got.cells[0]) == [("real", TOL / 2)]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("mode", MODES)
def test_max_solution_and_pseudo_char_match_loops(mode, family):
    rng = np.random.default_rng(2)
    levels = FAMILIES[family]
    found = 0
    for trial in range(200):
        m, n = rng.integers(1, 5, size=2)
        A = NeutroRelation(tie_grades(rng, (m, n), levels))
        if trial % 2:
            b = tie_grades(rng, (1, n), levels)[0]
        else:  # an image x ∘ A, so that the system has a solution
            x = NeutroRelation(tie_grades(rng, (1, m), levels))
            b = list(neutro_compose_loops(mode, x, A).cells[0])
        got, want = nre_max_solution(A, b, mode), nre_max_solution_loops(A, b, mode)
        assert (got is None) == (want is None)
        if got is not None:
            found += 1
            assert exact(got) == exact(want)
        assert n_pseudo_char_matrix(A, b) == n_pseudo_char_loops(A, b)
    assert found >= 20


def test_certificate_matches_loops():
    rng = np.random.default_rng(3)
    outcomes = set()
    for trial in range(400):
        m, n = rng.integers(1, 7, size=2)
        A = tie_values(rng, (m, n))
        if trial % 2:
            b = tie_values(rng, m)
        else:  # b = A ⊗ x, jittered
            x = tie_values(rng, n)
            b = np.clip(np.minimum(A, x).max(axis=1) + rng.choice(JITTER, size=m), 0.0, 1.0)
        cert = gavalec_certificate(A, b)
        solvable, unique, x_bar, I_sets, K_sets, touches = gavalec_loops(A, b)
        assert (cert.solvable, cert.unique) == (solvable, unique)
        assert np.array_equal(cert.x_bar, x_bar)
        assert cert.I == I_sets and cert.K == K_sets
        assert cert.cell_touches == touches == 2 * m * n
        outcomes.add((solvable, unique))
    assert outcomes == {(False, False), (True, False), (True, True)}
