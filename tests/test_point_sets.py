"""The minimal-solution filter, the Pareto archive, solution-set membership,
the premise, pattern and irreflexivity checks and the fuzzy c-means
membership update against their one-member-at-a-time loops, bit for bit.

Points sit on a 0.25 grid and are nudged around each tolerance in play: the
filter's TOL (1e-9), the dominance slack (1e-12) and the np.isclose band
(1e-8 + 1e-5·|z|), by half, 0.9 times and twice the tolerance, so that ties
inside and just outside each band are common.
"""

import numpy as np
import pytest

from relq.grades import TOL
from relq.optimize import ParetoArchive, dominates, fuzzy_c_means
from relq.relations import MaxMin, MaxProduct
from relq.solve import (FreProblem, _dominance_filter, irreflexivity_condition,
                        kagei_type2_unique, solve, sre_solvability_criteria)

from .oracles import (contains_loops, contradictory_pairs_loops, dominance_filter_loops,
                      dominates_pair, fuzzy_c_means_loops, irreflexivity_loops,
                      pareto_add_loops, sre_solvability_loops)

GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
SCALES = (0.0, 0.5, -0.5, 0.9, -0.9, 2.0, -2.0)


def nudged(rng, shape, tol):
    """Grid points, each cell moved by 0, ±tol/2, ±0.9·tol or ±2·tol."""
    return rng.choice(GRID, size=shape) + tol * rng.choice(SCALES, size=shape)


def same_arrays(xs, ys):
    return len(xs) == len(ys) and all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in zip(xs, ys))


@pytest.mark.parametrize("seed", range(40))
def test_dominance_filter_matches_loops(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 6))
    cands = list(nudged(rng, (int(rng.integers(1, 80)), m), TOL))
    cands += [c.copy() for c in cands[:5]]  # exact duplicates
    assert same_arrays(_dominance_filter(cands), dominance_filter_loops(cands))


def test_dominance_filter_small_cases():
    cands = [np.array([0.5, 0.0]), np.array([0.0, 0.5]), np.array([0.5, 0.5])]
    assert [c.tolist() for c in _dominance_filter(cands)] == [[0.0, 0.5], [0.5, 0.0]]
    assert _dominance_filter([]) == []


@pytest.mark.parametrize("seed", range(20))
def test_dominates_broadcasts_over_a_stack(seed):
    rng = np.random.default_rng(seed)
    zs = nudged(rng, (30, 2), 1e-12)
    z = zs[int(rng.integers(30))]
    assert dominates(zs, z).tolist() == [dominates_pair(y, z) for y in zs]
    assert dominates(z, zs).tolist() == [dominates_pair(z, y) for y in zs]
    assert dominates(zs[:, None], zs[None]).tolist() == [[dominates_pair(y, w) for w in zs]
                                                         for y in zs]
    assert type(dominates(zs[0], zs[1])) is bool


@pytest.mark.parametrize("tol", [1e-12, "isclose"])
@pytest.mark.parametrize("seed", range(20))
def test_archive_matches_loops(seed, tol):
    rng = np.random.default_rng(seed)
    base = rng.choice(GRID, size=(80, 3))
    band = 1e-12 if tol == 1e-12 else 1e-8 + 1e-5 * np.abs(base)
    zs = base + band * rng.choice(SCALES, size=base.shape)
    arch, points = ParetoArchive(), []
    for k, z in enumerate(zs):
        added, points = pareto_add_loops(points, [k], z)
        assert arch.add([k], z) is added
        assert len(arch.points) == len(points)
        for (x1, z1), (x2, z2) in zip(arch.points, points):
            assert same_arrays([x1, z1], [x2, z2])


def test_archive_scales_the_close_band_by_the_new_point():
    # d lies between the band of z = 0.5 and that of the archived 0.5 + d, so
    # only np.allclose(pz, z) (band 1e-8 + 1e-5·|z|) lets z replace it
    d = 1e-8 + 1e-5 * 0.5 + 2.5e-11
    arch, points = ParetoArchive(), []
    for k, z in enumerate([[0.5 + d, 0.5 + d], [0.5, 0.5]]):
        added, points = pareto_add_loops(points, [k], z)
        assert arch.add([k], z) is added is True
    assert [x.tolist() for x, _ in arch.points] == [[1.0]]


@pytest.mark.parametrize("comp", [MaxMin(), MaxProduct()])
@pytest.mark.parametrize("seed", range(15))
def test_contains_matches_loops(seed, comp):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    A = rng.choice(GRID, size=(m, n))
    b = FreProblem(A, np.zeros(n), comp).lhs(rng.choice(GRID, size=m))
    res = solve(FreProblem(A, b, comp), "pattern")
    lows = np.array(res.minimals)
    pts = [np.clip(lows[int(rng.integers(len(lows)))] + TOL * rng.choice(SCALES, size=m),
                   0.0, 1.0) for _ in range(30)]
    pts += [rng.random(m) * res.x_hat for _ in range(30)]
    for x in pts:
        assert res.contains(x) is contains_loops(res, x)


@pytest.mark.parametrize("bad", [np.nan, 1.5, -0.2])
def test_is_solution_rejects_out_of_range_x(bad):
    p = FreProblem([[0.5, 0.3], [0.7, 0.3]], [0.5, 0.3])
    with pytest.raises(ValueError, match="x must be finite and lie in"):
        p.is_solution([0.0, bad])


def test_lhs_checks_the_length_of_x():
    p = FreProblem([[0.5, 0.3], [0.7, 0.3]], [0.5, 0.3])
    with pytest.raises(ValueError, match="x has 1 entries for 2 rows"):
        p.lhs([0.5])
    assert p.lhs([0.0, 0.5]).tolist() == [0.5, 0.3]
    # an image a hair above 1 is clipped to 1, as a Relation's cells are
    assert FreProblem([[1 + 5e-10]], [1.0], MaxProduct()).lhs([1 + 5e-10]).tolist() == [1.0]


@pytest.mark.parametrize("seed", range(60))
def test_premise_and_pattern_checks_match_loops(seed):
    rng = np.random.default_rng(seed)
    k, s = int(rng.integers(1, 5)), int(rng.integers(1, 6))
    # sparse premises so that exclusive support points are common
    prem = nudged(rng, (k, s), TOL) * (rng.random((k, s)) < 0.4)
    for mode in ("sup-t", "inf-rho"):
        assert sre_solvability_criteria(list(prem), mode) is sre_solvability_loops(prem, mode)
    # clipped like pats below: a grade more than TOL outside [0, 1] is rejected
    R = np.clip(nudged(rng, (k, s), TOL) * (rng.random((k, s)) < 0.5), 0.0, 1.0)
    T = np.clip(nudged(rng, (k, s), TOL) * (rng.random((k, s)) < 0.5), 0.0, 1.0)
    assert irreflexivity_condition(R, T) is irreflexivity_loops(R, T)
    pats = np.clip(nudged(rng, (k + 2, 2), TOL) * (rng.random((k + 2, 2)) < 0.5), 0.0, 1.0)
    pairs = [(p, int(rng.integers(2))) for p in pats]
    pairs += [(pairs[0][0] + TOL * rng.choice(SCALES, size=2), int(rng.integers(2)))]
    if contradictory_pairs_loops(pairs):
        with pytest.raises(ValueError, match="contradictory pairs"):
            kagei_type2_unique(pairs, 2, 2)
    else:
        kagei_type2_unique(pairs, 2, 2)


def fcm_inputs():
    """Seeded point sets: Gaussian clouds with C up to 11 (each point's
    weights summed over more than 8 centres), grids of repeated points with
    one centre per distinct point (so points land on centres), and one
    point repeated."""
    rng = np.random.default_rng(77)
    for _ in range(6):
        C = int(rng.integers(2, 12))
        yield rng.normal(size=(int(rng.integers(C, 40)), 2)), C
    for _ in range(6):
        spots = rng.choice(GRID, size=(int(rng.integers(2, 5)), 2))
        yield spots[rng.integers(len(spots), size=30)], len(np.unique(spots, axis=0))
    yield np.full((5, 3), 0.25), 3


@pytest.mark.parametrize("case", range(13))
def test_fuzzy_c_means_matches_loops(case):
    points, C = list(fcm_inputs())[case]
    for m in (2.0, 1.5):
        res = fuzzy_c_means(points, C, m=m, rng_seed=case)
        centers, U, objective, it = fuzzy_c_means_loops(points, C, m=m, rng_seed=case)
        assert same_arrays([res.centers, res.memberships, np.float64(res.objective)],
                           [centers, U, np.float64(objective)])
        assert res.iterations == it


def test_fuzzy_c_means_gives_a_point_on_a_centre_to_the_first_one():
    # every centre is the one repeated point, so each point belongs wholly to centre 0
    res = fuzzy_c_means(np.full((5, 3), 0.25), 3)
    assert res.memberships.tolist() == [[1.0] * 5, [0.0] * 5, [0.0] * 5]
    # the centres without membership stay where they were, so the run stops
    assert np.all(np.isfinite(res.centers))
    assert res.objective == 0.0
    assert res.iterations == 2
