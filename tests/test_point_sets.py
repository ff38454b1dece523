"""Minimal solutions, the Pareto archive, solution-set membership, the
premise, pattern and irreflexivity checks and the fuzzy c-means membership
update against brute-force oracles and one-member-at-a-time loops.

``solve`` emits each minimal cover of the grid V once (``minimal_covers``)
and filters nothing afterwards.  On exact systems its minimal set is the
loop dominance filter over the point of every binding-row combination, at
``minimal_set_key``.  On systems nudged by up to 2·TOL, where attaining
values can chain under TOL apart, the oracles disagree among themselves, so
there each minimal must solve, none may dominate another, and each must be
irredundant up to its row's chain of values (``irredundant_chains_loops``).

Points sit on a 0.25 grid and are nudged around each tolerance in play: the
filter's TOL (1e-9), the dominance slack (1e-12) and the np.isclose band
(1e-8 + 1e-5·|z|), by half, 0.9 times and twice the tolerance, so that ties
inside and just outside each band are common.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relq import optimize
from relq.grades import LUKASIEWICZ, TOL, GeneratorTNorm
from relq.optimize import ParetoArchive, dominates, fuzzy_c_means
from relq.relations import MaxMin, MaxProduct, SupT
from relq.solve import (FreProblem, binding_columns, irreflexivity_condition,
                        kagei_type2_unique, max_solution, solve, sre_solvability_criteria)

from .oracles import (_combination_points, contains_loops, contradictory_pairs_loops,
                      dominance_filter_loops, dominates_pair, fuzzy_c_means_loops,
                      irredundant_chains_loops, irredundant_loops, irreflexivity_loops,
                      minimal_set_key, pareto_add_loops, pareto_replay_loops,
                      product_minimals, sre_solvability_loops)

GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
SCALES = (0.0, 0.5, -0.5, 0.9, -0.9, 2.0, -2.0)


def nudged(rng, shape, tol):
    """Grid points, each cell moved by 0, ±tol/2, ±0.9·tol or ±2·tol."""
    return rng.choice(GRID, size=shape) + tol * rng.choice(SCALES, size=shape)


def same_arrays(xs, ys):
    return len(xs) == len(ys) and all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in zip(xs, ys))


SQUARE = GeneratorTNorm(lambda u: 1.0 - u * u, f_inv=lambda v: math.sqrt(1.0 - v),
                        name="1-u^2")
COMPS = [MaxMin(), MaxProduct(), SupT(LUKASIEWICZ), SupT(SQUARE)]


def leaves_and_grid(p):
    """The point of every binding-row combination from zeros, and the grid V."""
    return list(_combination_points(p, np.zeros_like, 10 ** 5)), binding_columns(p)[2]


def filtered_leaves(p):
    """The pairwise dominance filter over every combination point."""
    return dominance_filter_loops(leaves_and_grid(p)[0])


def methods_match(p):
    """The minimal solutions, the same arrays in the same order by every method."""
    want = solve(p, "pattern").minimals
    for method in ("lambda", "archimedean"):
        assert same_arrays(solve(p, method).minimals, want), method
    return want


def check_nudged(p, lows):
    """Each minimal solves and is irredundant up to its row's chain of
    values, and none dominates another."""
    V = binding_columns(p)[2]
    for x in lows:
        assert p.is_solution(x) and irredundant_chains_loops(x, V)
        assert not any(np.all(y <= x + TOL) and np.any(y < x - TOL) for y in lows)


def grid_problem(m, n, steps, comp, seed, nudge=False):
    """A, then x, drawn on a grid of 1/steps, b = x∘A; with ``nudge``, each
    b_j then moved by 0, ±0.5·TOL or ±0.9·TOL."""
    rng = np.random.default_rng(seed)
    A = rng.integers(0, steps + 1, (m, n)) / steps
    b = FreProblem(A, np.zeros(n), comp).lhs(rng.integers(0, steps + 1, m) / steps)
    if nudge:
        b = np.clip(b + TOL * rng.choice(SCALES[:5], size=n), 0.0, 1.0)
    return FreProblem(A, b, comp)


@given(st.integers(1, 5), st.integers(1, 5), st.sampled_from([2, 4, 10]),
       st.sampled_from(COMPS[:3]), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_minimals_on_exact_grids_match_the_product_oracle(m, n, steps, comp, seed):
    p = grid_problem(m, n, steps, comp, seed)
    lows = methods_match(p)
    assert minimal_set_key(lows) == minimal_set_key(product_minimals(p))
    V = binding_columns(p)[2]
    assert all(irredundant_loops(x, V) for x in lows)
    far = [not np.all(np.abs(x - y) <= TOL) for x, y in itertools.combinations(lows, 2)]
    assert all(far)


@given(st.integers(1, 6), st.integers(1, 8), st.sampled_from([2, 4, 10]),
       st.sampled_from(COMPS[:3]), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_minimals_on_nudged_grids_solve_and_are_irredundant(m, n, steps, comp, seed):
    p = grid_problem(m, n, steps, comp, seed, nudge=True)
    assume(max_solution(p) is not None)
    check_nudged(p, methods_match(p))


@pytest.mark.parametrize("seed", range(40))
def test_minimals_match_filtered_leaves(seed):
    # A nudged around the grid, b the image of a grid point
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    comp = COMPS[seed % 4]
    A = np.clip(nudged(rng, (m, n), TOL), 0.0, 1.0)
    b = FreProblem(A, np.zeros(n), comp).lhs(rng.choice(GRID, size=m))
    p = FreProblem(A, b, comp)
    check_nudged(p, methods_match(p))


def test_minimals_merge_ties_that_do_not_sort_together():
    # two minimal solutions equal within TOL, [0.8, 0, 0.7, 0.8 + 2e-16, 0, 0, 0]
    # and its mirror, would sort with two others between them: one comes out
    A = [[.8, .4, .9, 1], [0, .1, .9, .9], [.9, 1, .2, .6], [.8, .8, 1, .3],
         [.6, .5, 1, .6], [0, .7, .5, .8], [.7, .1, .7, .4]]
    b = FreProblem(A, np.zeros(4), MaxProduct()).lhs([.2, .3, .2, .8, .7, 1, .5])
    p = FreProblem(A, b, MaxProduct())
    lows = np.array(methods_match(p))
    assert minimal_set_key(lows) == minimal_set_key(filtered_leaves(p))
    assert len(lows) == 10
    below = np.all(lows[:, None] <= lows[None] + TOL, axis=2)
    assert not below[~np.eye(10, dtype=bool)].any()


@pytest.mark.parametrize("seed", range(40))
def test_dominance_filter_matches_loops(seed):
    # exact grid systems with ties: the minimal set is the loop dominance
    # filter over every combination point, and that filter keeps it whole
    rng = np.random.default_rng(seed)
    m, n, comp = int(rng.integers(1, 6)), int(rng.integers(1, 6)), COMPS[seed % 4]
    A = rng.choice(GRID, size=(m, n))
    p = FreProblem(A, FreProblem(A, np.zeros(n), comp).lhs(rng.choice(GRID, size=m)), comp)
    lows = methods_match(p)
    assert minimal_set_key(lows) == minimal_set_key(filtered_leaves(p))
    assert same_arrays(dominance_filter_loops(lows), lows)


def test_dominance_filter_small_cases():
    # two rows that each cover both columns: two minimal solutions, in
    # lexicographic order, and not the point that raises both
    p = FreProblem([[1.0, 1.0], [1.0, 1.0]], [0.5, 0.5])
    assert [x.tolist() for x in solve(p).minimals] == [[0.0, 0.5], [0.5, 0.0]]
    # nothing to raise: zero alone
    assert [x.tolist() for x in solve(FreProblem([[0.5, 1.0]], [0.0, 0.0])).minimals] == [[0.0]]
    # attaining values 0.8·TOL apart chain into one value of the row, its
    # largest, although the chain is wider than TOL
    chain = 0.5 + TOL * np.array([0.0, 0.8, 1.6])
    p = FreProblem([chain], chain)
    assert [x.tolist() for x in solve(p).minimals] == [[chain[2]]]
    assert p.is_solution([chain[2]])


def test_minimals_drop_a_row_lower_elsewhere():
    # attaining values 0.8·TOL to 1.6·TOL apart: a row raised for one
    # constraint can sit just under another row's value elsewhere
    A = np.array([[0.6, 0.8, 1, 0.5, 1], [1, 0.5, 0.5, 0.8, 1], [0.8, 0.6, 0.5, 0.8, 0.8],
                  [0.5, 0.5, 1, 0.5, 1], [1, 0.6, 0.6, 0.8, 0.6]])
    A += TOL * np.array([[-0.5, 0, 0, 0, 0], [-0.5, -1.6, 0, 0, -1.6], [0.8, 0, 0.3, 0, -0.8],
                         [0, -1.6, 0, 0.5, 0], [0, 0, 0, 0, 0]])
    p = FreProblem(A, 0.6 + TOL * np.array([0.8, 0.0, 0.3, 1.6, 1.2]), MaxMin())
    lows = methods_match(p)
    check_nudged(p, lows)
    assert len(lows) == 6


@pytest.mark.parametrize("seed", range(40))
def test_minimals_with_chained_attaining_values(seed):
    # b nudged by 0, ±0.5·TOL or ±0.9·TOL, so one column's attaining values
    # can sit under TOL apart in a chain longer than TOL
    for k in itertools.count():
        rng = np.random.default_rng([seed, k])
        m, n, comp = int(rng.integers(2, 7)), int(rng.integers(2, 9)), COMPS[seed % 4]
        A = rng.choice(GRID[2:], size=(m, n))
        b = FreProblem(A, np.zeros(n), comp).lhs(rng.choice(GRID[2:4], size=m))
        p = FreProblem(A, np.clip(b + TOL * rng.choice(SCALES[:5], size=n), 0.0, 1.0), comp)
        if max_solution(p) is not None:
            break
    check_nudged(p, methods_match(p))


def test_minimals_keep_an_irredundant_solution_the_leaf_filter_drops():
    # a dominance filter over every leaf of a search that emits redundant
    # leaves dropped the solution r on its way through them; the search
    # filters nothing, and r is in the union of its intervals
    A = [[0.5, 0.75, 0.5, 0.75, 0.75, 0.75, 1.0, 0.75],
         [0.5, 0.5, 0.75, 0.75, 0.5, 1.0, 0.5, 1.0],
         [0.75, 0.75, 0.5, 0.5, 0.75, 0.75, 0.5, 0.5],
         [0.75, 1.0, 1.0, 0.75, 0.75, 0.5, 0.75, 0.5],
         [0.5, 1.0, 0.75, 0.75, 0.5, 1.0, 1.0, 1.0],
         [0.5, 1.0, 1.0, 0.75, 0.75, 0.75, 0.5, 1.0]]
    p = FreProblem(A, 0.75 + TOL * np.array([0.5, 0.9, 0, 0, -0.5, -0.5, -0.9, -0.5]), MaxMin())
    lows = methods_match(p)
    check_nudged(p, lows)
    r = np.array([0.75 - 0.5 * TOL, 0.0, 0.75 + 0.5 * TOL, 0.75 - 0.9 * TOL, 0.0, 0.0])
    assert len(lows) == 7 and p.is_solution(r) and solve(p).contains(r)


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


def archive_inputs(seed, tol):
    """The seed's generator and 80 objective vectors on the grid (duplicates
    common), nudged around the dominance slack or the np.isclose band."""
    rng = np.random.default_rng(seed)
    base = rng.choice(GRID, size=(80, 3))
    band = 1e-12 if tol == 1e-12 else 1e-8 + 1e-5 * np.abs(base)
    return rng, base + band * rng.choice(SCALES, size=base.shape)


def same_points(arch, points):
    return same_arrays([a for pt in arch.points for a in pt], [a for pt in points for a in pt])


@pytest.mark.parametrize("tol", [1e-12, "isclose"])
@pytest.mark.parametrize("seed", range(20))
def test_archive_matches_loops(seed, tol):
    arch, points = ParetoArchive(), []
    for k, z in enumerate(archive_inputs(seed, tol)[1]):
        added, points = pareto_add_loops(points, [k], z)
        assert arch.add([k], z) is added
        assert same_points(arch, points)


@pytest.mark.parametrize("cells", [None, 200])
@pytest.mark.parametrize("tol", [1e-12, "isclose"])
@pytest.mark.parametrize("seed", range(20))
def test_archive_extend_matches_loops(seed, tol, cells, monkeypatch):
    # the points of test_archive_matches_loops, added in batches of 1 to 24
    # from an empty archive: each batch in one array pass, or, with 200
    # cells, in slices of a few rows
    if cells:
        monkeypatch.setattr(optimize, "CHUNK_CELLS", cells)
    rng, zs = archive_inputs(seed, tol)
    arch, points, start = ParetoArchive(), [], 0
    while start < len(zs):
        batch = range(start, min(start + int(rng.integers(1, 25)), len(zs)))
        want = []
        for k in batch:
            added, points = pareto_add_loops(points, [k], zs[k])
            want.append(added)
        got = arch.extend([[k] for k in batch], zs[batch.start:batch.stop])
        assert got == want and all(type(a) is bool for a in got)
        assert same_points(arch, points)
        start = batch.stop


def test_archive_extend_drops_an_earlier_point_of_its_batch():
    # the second point dominates the first, the third repeats the second and
    # the fourth lies in its band; only the second stays
    arch = ParetoArchive()
    zs = [[0.5, 0.5], [0.2, 0.2], [0.2, 0.2], [0.2 + 1e-9, 0.2]]
    assert arch.extend([[0], [1], [2], [3]], zs) == [True, True, False, False]
    assert [x.tolist() for x, _ in arch.points] == [[1.0]]
    assert arch.add([4], [0.1, 0.9]) is True and arch.add([5], [0.1, 0.95]) is False
    assert [x.tolist() for x, _ in arch.points] == [[1.0], [4.0]]
    assert arch.extend([], []) == [] and len(arch.points) == 2


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3]), st.sampled_from([1e-12, "isclose"]),
       st.lists(st.integers(1, 160), min_size=1, max_size=4), st.integers(0, 2 ** 32 - 1))
def test_archive_extend_matches_the_replay_oracle(objectives, tol, sizes, seed):
    # batches of up to 160 points: above about 104 (3 objectives) or 128 (2),
    # fewer beside a non-empty archive, extend passes them in CHUNK_CELLS
    # slices; the archive's points and adds must be those of one point-major
    # pass and a replay of every point
    rng = np.random.default_rng(seed)
    arch, points = ParetoArchive(), []
    for size in sizes:
        base = rng.choice(GRID, size=(size, objectives))
        band = 1e-12 if tol == 1e-12 else 1e-8 + 1e-5 * np.abs(base)
        X, Z = rng.random((size, 2)), base + band * rng.choice(SCALES, size=base.shape)
        want, points = pareto_replay_loops(points, X, Z)
        assert arch.extend(X, Z) == want
        assert same_points(arch, points)


def test_archive_refuses_objective_vectors_of_another_length():
    arch = ParetoArchive()
    assert arch.extend([[0.0], [1.0]], [[0.5, 0.5], [0.2, 0.9]]) == [True, True]
    for Z in ([[0.1, 0.1, 0.1]], [[0.1]]):
        with pytest.raises(ValueError, match=f"^objective vectors of {len(Z[0])} values "
                                             "for an archive of 2 objectives$"):
            arch.extend([[2.0]], Z)
    assert [z.tolist() for _, z in arch.points] == [[0.5, 0.5], [0.2, 0.9]]


def test_archive_extend_of_an_empty_batch_changes_nothing():
    arch = ParetoArchive()
    arch.extend([[0.0], [1.0]], [[0.5, 0.5], [0.2, 0.9]])
    before = list(arch.points)
    for X, Z in (([], []), (np.empty((0, 1)), np.empty((0, 2))),
                 (np.empty((0, 1)), np.empty((0, 3)))):
        assert arch.extend(X, Z) == []
        assert len(arch.points) == 2 and all(a is b for a, b in zip(arch.points, before))
    assert arch.add([2.0], [0.1, 0.1]) is True
    assert [x.tolist() for x, _ in arch.points] == [[2.0]]


def test_archived_points_own_their_data():
    # a row view of the batch would keep the whole (20, 10) and (20, 2)
    # arrays alive for as long as the one point stays archived
    rng = np.random.default_rng(3)
    arch = ParetoArchive()
    for _ in range(3):
        arch.extend(rng.random((20, 10)), rng.random((20, 2)))
    assert arch.points
    for x, z in arch.points:
        assert x.base is None and x.flags.owndata and x.shape == (10,)
        assert z.base is None and z.flags.owndata and z.shape == (2,)


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
    # sparse premises so that exclusive support points are common; clipped
    # like R, T and the patterns below, since a grade more than TOL outside
    # [0, 1] is rejected
    prem = np.clip(nudged(rng, (k, s), TOL) * (rng.random((k, s)) < 0.4), 0.0, 1.0)
    for mode in ("sup-t", "inf-rho"):
        assert sre_solvability_criteria(list(prem), mode) is sre_solvability_loops(prem, mode)
    R = np.clip(nudged(rng, (k, s), TOL) * (rng.random((k, s)) < 0.5), 0.0, 1.0)
    T = np.clip(nudged(rng, (k, s), TOL) * (rng.random((k, s)) < 0.5), 0.0, 1.0)
    assert irreflexivity_condition(R, T) is irreflexivity_loops(R, T)
    pats = np.clip(nudged(rng, (k + 2, 2), TOL) * (rng.random((k + 2, 2)) < 0.5), 0.0, 1.0)
    pairs = [(p, int(rng.integers(2))) for p in pats]
    pairs += [(np.clip(pairs[0][0] + TOL * rng.choice(SCALES, size=2), 0.0, 1.0),
               int(rng.integers(2)))]
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
