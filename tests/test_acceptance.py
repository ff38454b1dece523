"""Acceptance suite: one printed PASS/FAIL line per criterion."""

import decimal
import itertools
import time

import numpy as np
import pytest

from relq import datasets
from relq.grades import (DRASTIC, LUKASIEWICZ, MIN, PRODUCT, GeneratorTNorm,
                         crisp_material, kleene_dienes, q_metric)
from relq.learn import TrainingSet, delta_rule_B, delta_rule_K, sup_t_image
from relq.neutro import (I, NeutroRelation, R, n_pseudo_char_matrix,
                         neutro_compose, neutro_max, neutro_min,
                         nre_max_solution)
from relq.optimize import (GaConfig, LinearFreProblem,
                           optimize_linear, optimize_nonlinear_ga,
                           pseudo_char_matrix)
from relq.products import (ContingencyTable, checklist_product,
                           classical_support, mamdani_control,
                           triangle_product_criteria,
                           triangle_product_subjects)
from relq.relations import MaxMin, MaxProduct, Relation, alpha_cut, compose
from relq.solve import (FreProblem, InfeasibleError, gavalec_certificate,
                        max_solution, minimal_solutions_archimedean,
                        minimal_solutions_lambda,
                        minimal_solutions_matrix_pattern, solve)

from .oracles import (brute_force_linear, brute_solvable_unique, grid_in_union,
                      grid_solutions, minimal_set_key)

GRID5 = [0.0, 0.25, 0.5, 0.75, 1.0]


def report(num, desc, ok):
    print(f"\n[ACCEPTANCE] criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def round2(x):
    return float(decimal.Decimal(repr(float(x))).quantize(
        decimal.Decimal("0.01"), rounding=decimal.ROUND_HALF_UP))


def feasible_instance(rng, m, n, comp=None, decimals=2):
    comp = comp or MaxMin()
    A = np.round(rng.random((m, n)), decimals)
    x0 = np.round(rng.random(m), decimals)
    b = FreProblem(A, np.zeros(n), comp).lhs(x0)
    return FreProblem(A, b, comp)


# ---------------------------------------------------------------------------
# 1. bonded-labor compositions, exact, < 1 ms each
# ---------------------------------------------------------------------------

def test_criterion_01_bonded_labor():
    forward = {1: [0.6, 0.6, 0.4, 0.1, 0.6, 0.5],
               2: [0.6, 0.6, 0.3, 0.1, 0.6, 0.5],
               3: [0.6, 0.5, 0.3, 0.2, 0.6, 0.5]}
    inverse = {1: [0.6, 0.4, 0.4, 0.6],
               2: [0.6, 0.2, 0.4, 0.6],
               3: [0.6, 0.3, 0.4, 0.6]}
    ok = True
    worst = 0.0
    for e in (1, 2, 3):
        for direction, expect in (("forward", forward[e]), ("inverse", inverse[e])):
            times = []
            for _ in range(5):
                t0 = time.perf_counter()
                got = datasets.demo_bonded_labor(e, direction)
                times.append(time.perf_counter() - t0)
            ok &= list(got) == expect          # tolerance 0
            worst = max(worst, min(times))
    ok &= worst < 1e-3
    report(1, "bonded-labor forward/inverse exact for all experts, < 1 ms", ok)


# ---------------------------------------------------------------------------
# 2. transportation peaks, identity to 1e-9, < 10 ms
# ---------------------------------------------------------------------------

def test_criterion_02_transport_peaks():
    expect = {
        "threes": [(8, 222), (10, 300), (13, 265), (16, 381), (20, 376)],
        "fives": [(10, 300), (16, 381), (20, 376)],
        "arbitrary": [(8, 222), (10, 300), (14, 249), (16, 381)],
    }
    ok = True
    for part, pairs in expect.items():
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            series = datasets.pallavan_series(part)
            blocks = datasets.estimate_block_relations(series)
            times.append(time.perf_counter() - t0)
        got = [(b["peak_label"], int(round(b["peak_value"] / 1e-4)))
               for b in blocks]
        ok &= got == pairs
        for blk in blocks:
            qs = series.q[list(blk["block"])]
            rs = series.r[list(blk["block"])]
            out = np.max(blk["P"].cells * qs[None, :], axis=1)
            ok &= bool(np.all(np.abs(out - rs) <= 1e-9))
        ok &= min(times) < 1e-2
    report(2, "transport peak hours/counts exact, composition identity 1e-9, < 10 ms", ok)


# ---------------------------------------------------------------------------
# 3. neutrosophic compositions, exact
# ---------------------------------------------------------------------------

def test_criterion_03_neutro_compositions():
    P = NeutroRelation([["0.3", "I", "1"], ["0", "0.9", "0.2"],
                        ["0.7", "0", "0.4"]])
    Q = NeutroRelation([["0.1"], ["I"], ["0"]])
    out = neutro_compose("absorbing", P, Q)
    ok = [out[i, 0] for i in range(3)] == [I(1.0), I(1.0), R(0.1)]
    ok &= datasets.demo_bonded_labor_nre() == [
        R(0.6), I(0.8), R(0.4), I(0.4), R(0.6), R(0.9)]
    ok &= datasets.demo_medical_nre() == [
        I(0.5), R(0.3), R(0.3), R(0.3), I(0.5),
        R(0.0), R(0.7), R(0.3), R(0.7), R(0.6)]
    report(3, "absorbing and graded neutrosophic composition results exact", ok)


# ---------------------------------------------------------------------------
# 4. triangle products, cuts, checklist, support
# ---------------------------------------------------------------------------

U_PRINTED = [
    [1, .88, .88, .75, .88, .63, .88, .75, .88, .63],
    [1, 1, .88, .88, .88, .75, 1, .75, .88, .75],
    [.75, .63, 1, .5, .75, .5, .75, .75, .75, .63],
    [.75, .75, .63, 1, .75, .63, .75, .63, .63, .75],
    [.88, .75, .88, .75, 1, .63, .75, .75, .88, .75],
    [.88, .88, .88, .88, .88, 1, .88, .88, .88, .88],
    [.88, .88, .88, .75, .75, .63, 1, .63, .75, .63],
    [.88, .75, 1, .75, .88, .75, .75, 1, .88, .75],
    [1, .88, 1, .75, 1, .75, .88, .88, 1, .75],
    [.88, .88, .88, 1, 1, .88, .88, .88, .88, 1],
]

U_CUT_1 = [
    [1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 1, 0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 1, 0, 0],
    [1, 0, 1, 0, 1, 0, 0, 0, 1, 0],
    [0, 0, 0, 1, 1, 0, 0, 0, 0, 1],
]

V_PRINTED = [
    [1, .8, .8, .9, .9, .8, 1, .8],
    [.9, 1, .9, .9, .9, .9, .9, .9],
    [.9, .9, 1, .9, .9, 1, .9, 1],
    [.5, .4, .4, 1, .6, .5, .8, .7],
    [.9, .8, .8, 1, 1, .8, .9, .9],
    [.7, .7, .8, .8, .7, 1, .8, .8],
    [.7, .5, .5, .9, .6, .6, 1, .6],
    [.6, .6, .7, .9, .7, .7, .7, 1],
]

V_CUT_1 = [
    [1, 0, 0, 0, 0, 0, 1, 0],
    [0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 1, 0, 1],
    [0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 1, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 1],
]

# Erratum in the reference table: cell U(3,10) is printed as .63, but
# recomputing it from the raw marks gives 4/8 = 0.50 (subject P3 has marks on
# criteria 1, 4, 5, 7 while P10 is marked only on criterion 6, so exactly four
# of the eight implications hold).  Every other cell of U and V agrees with
# the recomputation, as do both alpha=1 cuts, so the single cell is corrected
# here.
U_ERRATA = {(2, 9): 0.5}

W_PRINTED = [
    [.6, .6, .4, .4, .6],
    [.6, .6, .4, .4, .6],
    [.6, .6, .6, .6, .6],
    [.6, .6, .6, .6, .6],
    [.6, .6, .4, .4, .6],
]


def test_criterion_04_triangle_products():
    U = triangle_product_subjects(datasets.HIV_MARKS, crisp_material)
    V = triangle_product_criteria(datasets.HIV_MARKS, crisp_material)
    ok = all(
        round2(U[j, m]) == round2(U_ERRATA.get((j, m), U_PRINTED[j][m]))
        for j in range(10) for m in range(10)
    )
    ok &= all(
        round2(V[i, k]) == round2(V_PRINTED[i][k])
        for i in range(8) for k in range(8)
    )
    ok &= np.array_equal(alpha_cut(U, 1.0).cells, np.array(U_CUT_1, float))
    ok &= np.array_equal(alpha_cut(V, 1.0).cells, np.array(V_CUT_1, float))
    W = checklist_product(datasets.HIV_CHECKLIST_MARKS, kleene_dienes)
    ok &= bool(np.allclose(W.cells, np.array(W_PRINTED), atol=1e-12))
    p2 = datasets.HIV_CHECKLIST_MARKS.cells[1]   # subject P2 marks
    p3 = datasets.HIV_CHECKLIST_MARKS.cells[2]
    support = classical_support(ContingencyTable.from_marks(p2, p3))
    ok &= support == pytest.approx(0.6, abs=0)
    report(4, "U/V match the reference tables at 2 decimals (one documented "
              "erratum at U(3,10)), alpha=1 cuts exact, checklist W and "
              "support 0.6 exact", ok)


# ---------------------------------------------------------------------------
# 5. solution-set characterization on exhaustive grids
# ---------------------------------------------------------------------------

def test_criterion_05_solution_set_characterization():
    rng = np.random.default_rng(505)
    t0 = time.perf_counter()
    count = 0
    ok = True
    for comp in (MaxMin(), MaxProduct()):
        for _ in range(260):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            A = rng.choice(GRID5, size=(m, n))
            if rng.random() < 0.7:
                x0 = rng.choice(GRID5, size=m)
                b = FreProblem(A, np.zeros(n), comp).lhs(x0)
            else:
                b = rng.choice(GRID5, size=n)
            p = FreProblem(A, b, comp)
            try:
                res = solve(p)
            except InfeasibleError:
                res = None
            sols = grid_solutions(p, GRID5)
            if res is None:
                ok &= not sols
            else:
                for combo in itertools.product(GRID5, repeat=m):
                    x = np.array(combo)
                    ok &= p.is_solution(x) == grid_in_union(x, res)
            count += 1
    elapsed = time.perf_counter() - t0
    ok &= count >= 500 and elapsed < 30.0
    report(5, f"grid solution set equals union of intervals on {count} "
              f"instances in {elapsed:.1f}s (max-min and max-product)", ok)


# ---------------------------------------------------------------------------
# 6. three-method agreement
# ---------------------------------------------------------------------------

def test_criterion_06_method_agreement():
    rng = np.random.default_rng(606)
    ok = True
    for _ in range(200):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        pm = feasible_instance(rng, m, n, MaxMin())
        ok &= (minimal_set_key(minimal_solutions_lambda(pm).minimals)
               == minimal_set_key(minimal_solutions_matrix_pattern(pm).minimals))
        pp = feasible_instance(rng, m, n, MaxProduct())
        keys = [minimal_set_key(fn(pp).minimals)
                for fn in (minimal_solutions_lambda,
                           minimal_solutions_matrix_pattern,
                           minimal_solutions_archimedean)]
        ok &= keys[0] == keys[1] == keys[2]
    report(6, "lambda / pattern / archimedean minimal sets agree on 200 "
              "random feasible instances", ok)


# ---------------------------------------------------------------------------
# 7. linear optimization exactness
# ---------------------------------------------------------------------------

def test_criterion_07_linear_optimization():
    rng = np.random.default_rng(707)
    ok = True
    for _ in range(200):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        base = feasible_instance(rng, m, n)
        c = np.round(rng.uniform(-2, 2, size=m), 2)
        p = LinearFreProblem(base, c)
        x1, z1 = optimize_linear(p)
        _, z2 = brute_force_linear(p)
        ok &= abs(z1 - z2) <= 1e-9 and base.is_solution(x1)
    report(7, "optimize_linear equals brute-force assembled-candidate minimum "
              "on 200 instances (tol 1e-9)", ok)


# ---------------------------------------------------------------------------
# 8. Gavalec certificates
# ---------------------------------------------------------------------------

def _check_gavalec(A, b):
    cert = gavalec_certificate(A, b)
    solvable, unique = brute_solvable_unique(A, b, GRID5)
    return (cert.solvable == solvable and cert.unique == unique
            and cert.cell_touches <= 2 * A.size)


def test_criterion_08_gavalec():
    ok = True
    # exhaustive over the small shapes (all grid instances)
    for m, n in ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)):
        cells = m * n
        for a_combo in itertools.product(GRID5, repeat=cells):
            A = np.array(a_combo).reshape(m, n)
            for b_combo in itertools.product(GRID5, repeat=m):
                ok &= _check_gavalec(A, np.array(b_combo))
        if not ok:
            break
    # seeded random sampling of the remaining <= 3x3 grid shapes
    rng = np.random.default_rng(808)
    for m, n in ((2, 3), (3, 2), (3, 3)):
        for _ in range(1500):
            A = rng.choice(GRID5, size=(m, n))
            b = rng.choice(GRID5, size=m)
            ok &= _check_gavalec(A, b)
    report(8, "Gavalec solvable/unique flags match brute force on grid "
              "instances; each cell touched O(1) times", ok)


# ---------------------------------------------------------------------------
# 9. rule K equals the transposed greatest solution
# ---------------------------------------------------------------------------

def test_criterion_09_rule_k():
    from relq.relations import SupT
    rng = np.random.default_rng(909)
    ok = True
    for t in (MIN, PRODUCT):
        for _ in range(100):
            p_ = int(rng.integers(1, 5))
            n_ = int(rng.integers(1, 5))
            m_ = int(rng.integers(1, 5))
            W0 = np.round(rng.random((n_, m_)), 2)
            A = np.round(rng.random((p_, n_)), 2)
            ts = TrainingSet(A, sup_t_image(t, A, W0))
            res = delta_rule_K(ts, t)
            comp = MaxMin() if t is MIN else SupT(t)
            for j in range(ts.m):
                x_hat = max_solution(FreProblem(ts.inputs.T, ts.targets[:, j], comp))
                ok &= x_hat is not None and np.array_equal(res.W[:, j], x_hat)
    report(9, "rule K output equals the transposed greatest solution on 100 "
              "solvable systems for min and product", ok)


# ---------------------------------------------------------------------------
# 10. rule B closed form
# ---------------------------------------------------------------------------

def test_criterion_10_rule_b():
    rng = np.random.default_rng(1010)
    ok = True
    for _ in range(100):
        p_ = int(rng.integers(1, 5))
        n_ = int(rng.integers(1, 5))
        m_ = int(rng.integers(1, 5))
        W0 = np.round(rng.random((n_, m_)), 2)
        A = np.round(rng.random((p_, n_)), 2)
        B = sup_t_image(MIN, A, W0)
        ts = TrainingSet(A, B)
        res = delta_rule_B(ts)
        # closed form
        for k in range(n_):
            for j in range(m_):
                vals = [B[i, j] for i in range(p_) if A[i, k] > B[i, j] + 1e-9]
                expect = min(vals) if vals else 1.0
                ok &= res.W[k, j] == expect
        # solves exactly when solvable
        ok &= bool(np.allclose(sup_t_image(MIN, A, res.W), B, atol=1e-12))
        # order invariance
        perm = rng.permutation(p_)
        res2 = delta_rule_B(TrainingSet(A[perm], B[perm]))
        ok &= np.array_equal(res.W, res2.W)
    report(10, "rule B matches its closed form, solves solvable systems, and "
               "is sample-order invariant", ok)


# ---------------------------------------------------------------------------
# 11. control equivalence on one-hot inputs
# ---------------------------------------------------------------------------

def test_criterion_11_control_equivalence():
    rng = np.random.default_rng(1111)
    ok = True
    for _ in range(100):
        nx = int(rng.integers(2, 6))
        nu = int(rng.integers(2, 6))
        nr = int(rng.integers(1, 5))
        rules = [(np.round(rng.random(nx), 3), np.round(rng.random(nu), 3))
                 for _ in range(nr)]
        x = np.zeros(nx)
        x[int(rng.integers(nx))] = 1.0
        a = mamdani_control(rules, x, method="simple")
        b = mamdani_control(rules, x, method="adjoint-godel")
        ok &= np.array_equal(a, b)
    report(11, "adjoint-Goedel control equals simple Mamdani control on 100 "
               "one-hot rule bases, exact", ok)


# ---------------------------------------------------------------------------
# 12. Q_t metric axioms and drastic violation
# ---------------------------------------------------------------------------

def test_criterion_12_q_metric():
    rng = np.random.default_rng(1212)
    ok = True
    for t in (MIN, LUKASIEWICZ):
        for _ in range(10_000):
            n = int(rng.integers(1, 5))
            A, B, C = rng.random(n), rng.random(n), rng.random(n)
            dAB = q_metric(t, A, B)
            ok &= 0.0 <= dAB <= 1.0
            ok &= q_metric(t, A, A) <= 1e-9
            ok &= abs(dAB - q_metric(t, B, A)) <= 1e-9
            ok &= dAB <= q_metric(t, A, C) + q_metric(t, C, B) + 1e-9
            if not ok:
                break
    violated = False
    # drastic distances need membership values at exactly 1.0 to be nonzero,
    # so sample the triples from an 11-point grid
    grid = np.linspace(0.0, 1.0, 11)
    for _ in range(100_000):
        n = int(rng.integers(1, 4))
        A, B, C = (rng.choice(grid, size=n) for _ in range(3))
        if q_metric(DRASTIC, A, B) > (q_metric(DRASTIC, A, C)
                                      + q_metric(DRASTIC, C, B) + 1e-9):
            violated = True
            break
    ok &= violated
    report(12, "Q_t metric axioms hold for min and Lukasiewicz on 10^4 triples; "
               "drastic triangle violation found", ok)


# ---------------------------------------------------------------------------
# 13. residuation laws
# ---------------------------------------------------------------------------

def test_criterion_13_residuation():
    import math
    gen = GeneratorTNorm(lambda u: 1.0 - u * u, f_inv=lambda v: math.sqrt(max(0.0, 1.0 - v)),
                         name="gen-quadratic")
    rng = np.random.default_rng(1313)
    ok = True
    for t in (MIN, PRODUCT, LUKASIEWICZ, gen):
        for _ in range(10_000):
            a, b, x = rng.random(3)
            w = t.residuum(a, b)
            ok &= t(a, w) <= b + 1e-9
            ok &= (t(a, x) <= b + 1e-9) == (x <= w + 1e-9) or \
                abs(t(a, x) - b) <= 2e-9 or abs(x - w) <= 2e-9
            if not ok:
                break
    # drastic is not left-continuous: its residuum is the (unattained) least
    # upper bound, and the adjunction still holds on continuously sampled
    # triples
    for _ in range(10_000):
        a, b, x = rng.random(3)
        w = DRASTIC.residuum(a, b)
        if DRASTIC(a, x) <= b + 1e-9:
            ok &= x <= w + 1e-9
        if x < w - 1e-9:
            ok &= DRASTIC(a, x) <= b + 1e-9
        if not ok:
            break
    report(13, "residuation adjunction and attainment hold for all continuous "
               "built-ins; drastic satisfies the supremum characterization", ok)


# ---------------------------------------------------------------------------
# 14. GA optimality gap
# ---------------------------------------------------------------------------

def test_criterion_14_ga_gap():
    rng = np.random.default_rng(1414)
    hits = 0
    ok = True
    for run in range(20):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(2, 6))
        base = feasible_instance(rng, m, n)
        c = np.round(rng.uniform(-1, 2, size=m), 2)
        _, z_exact = optimize_linear(LinearFreProblem(base, c))
        cfg = GaConfig(rng_seed=run)
        t0 = time.perf_counter()
        _, z_ga = optimize_nonlinear_ga(base, lambda x: float(np.dot(c, x)), cfg)
        elapsed = time.perf_counter() - t0
        ok &= elapsed < 5.0
        # the GA may exploit the 1e-9 feasibility tolerance, so its value can
        # sit marginally below the exact optimum
        ok &= z_ga >= z_exact - 1e-6
        if abs(z_ga - z_exact) <= 1e-3:
            hits += 1
    ok &= hits >= 18
    report(14, f"GA within 1e-3 of the exact optimum on {hits}/20 seeded runs, "
               "each under 5 s", ok)


# ---------------------------------------------------------------------------
# 15. restriction law
# ---------------------------------------------------------------------------

def test_criterion_15_restriction():
    rng = np.random.default_rng(1515)
    ok = True
    for mode in ("graded", "absorbing"):
        for _ in range(100):
            a, b = rng.random(2)
            ok &= neutro_min(mode, R(a), R(b)).coeff == min(a, b)
            ok &= neutro_max(mode, R(a), R(b)).coeff == max(a, b)
            ok &= neutro_min(mode, R(a), R(b)).is_real
        for _ in range(60):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            Pg = np.round(rng.random((m, n)), 3)
            Qg = np.round(rng.random((n, k)), 3)
            Pn = NeutroRelation([[R(v) for v in row] for row in Pg])
            Qn = NeutroRelation([[R(v) for v in row] for row in Qg])
            out = neutro_compose(mode, Pn, Qn)
            ref = compose(MaxMin(), Relation(Pg), Relation(Qg))
            ok &= out.all_real() and np.array_equal(out.to_real(), ref.cells)
        for _ in range(40):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            A = np.round(rng.random((m, n)), 2)
            x0 = np.round(rng.random(m), 2)
            b = FreProblem(A, np.zeros(n)).lhs(x0)
            An = NeutroRelation([[R(v) for v in row] for row in A])
            got = nre_max_solution(An, [R(v) for v in b], mode)
            expect = max_solution(FreProblem(A, b))
            ok &= got is not None and all(g.is_real for g in got)
            ok &= np.array_equal([g.coeff for g in got], expect)
            sign_n = n_pseudo_char_matrix(An, [R(v) for v in b])
            sign_f = pseudo_char_matrix(A, b)
            ok &= [[int(s) for s in row] for row in sign_n] == sign_f.tolist()
    report(15, "neutrosophic operations on all-real inputs match the fuzzy "
               "counterparts bit-for-bit", ok)
