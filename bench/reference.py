"""Plain-numpy references the benchmark checks relq's outputs against.

Nothing here imports relq: each function restates the mathematics from the
definitions, so a defect in relq cannot hide by being repeated here.
Grades are float arrays in [0, 1]; ``TOL`` is the comparison slack relq
documents for its own grade comparisons.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

TOL = 1e-9


# ---------------------------------------------------------------------------
# compositions
# ---------------------------------------------------------------------------

def maxmin(P, Q, chunk=32):
    """(P ∘ Q)[i, k] = max_j min(P[i, j], Q[j, k]), row-chunked."""
    P, Q = np.atleast_2d(P), np.atleast_2d(Q)
    out = np.empty((P.shape[0], Q.shape[1]))
    for s in range(0, P.shape[0], chunk):
        out[s:s + chunk] = np.minimum(P[s:s + chunk, :, None], Q[None]).max(axis=1)
    return out


def maxproduct(P, Q, chunk=32):
    """(P ∘ Q)[i, k] = max_j P[i, j] · Q[j, k], row-chunked."""
    P, Q = np.atleast_2d(P), np.atleast_2d(Q)
    out = np.empty((P.shape[0], Q.shape[1]))
    for s in range(0, P.shape[0], chunk):
        out[s:s + chunk] = (P[s:s + chunk, :, None] * Q[None]).max(axis=1)
    return out


def sup_lukasiewicz(P, Q):
    return np.maximum(0.0, P[:, :, None] + Q[None] - 1.0).max(axis=1)


def hamacher(a, b):
    """Hamacher product ab / (a + b − ab), the t-norm of generator (1 − x)/x."""
    den = a + b - a * b
    return np.where(den > 0, a * b / np.where(den > 0, den, 1.0), 0.0)


def sup_hamacher(P, Q):
    return hamacher(P[:, :, None], Q[None]).max(axis=1)


def godel(a, b):
    """Gödel implication (also the min residuum): 1 where a <= b, else b."""
    return np.where(a <= b + TOL, 1.0, b)


def goguen(a, b):
    """Product residuum: 1 where a <= b, else b / a."""
    return np.where(a <= b + TOL, 1.0, b / np.where(a > 0, a, 1.0))


def inf_godel(P, Q):
    """(P ◁ Q)[i, k] = min_j godel(P[i, j], Q[j, k])."""
    return godel(P[:, :, None], Q[None]).min(axis=1)


COMPOSE = {"max-min": maxmin, "max-product": maxproduct}
RESIDUUM = {"max-min": godel, "max-product": goguen}
TNORM = {"max-min": np.minimum, "max-product": np.multiply}


# ---------------------------------------------------------------------------
# x ∘ A = b
# ---------------------------------------------------------------------------

def image(comp, x, A):
    return COMPOSE[comp](np.asarray(x, float).reshape(1, -1), A)[0]


def is_solution(comp, x, A, b, tol=TOL):
    return bool(np.all(np.abs(image(comp, x, A) - b) <= tol))


def greatest(comp, A, b):
    """Sanchez greatest-solution candidate x̂_i = min_j res(A[i, j], b[j])."""
    return RESIDUUM[comp](A, b[None, :]).min(axis=1)


def binding_sets(comp, A, b, x_hat, tol=TOL):
    """I_j: rows whose term t(x̂_i, A[i, j]) attains b[j]."""
    hit = np.abs(TNORM[comp](x_hat[:, None], A) - b[None, :]) <= tol
    return [[int(i) for i in np.flatnonzero(hit[:, j])] for j in range(A.shape[1])]


def combinations(sets):
    """Binding-row combinations a full enumeration visits: the product of
    the binding-set sizes, an empty set counting as one."""
    return math.prod(max(len(s), 1) for s in sets)


def minimal_solutions(comp, A, b):
    """All minimal solutions by brute force over binding-row choices.

    Only for tiny systems; None when the system has no solution.
    """
    x_hat = greatest(comp, A, b)
    if not is_solution(comp, x_hat, A, b):
        return None
    sets = binding_sets(comp, A, b, x_hat)
    cands = {}
    for f in itertools.product(*sets):
        x = np.zeros(A.shape[0])
        for j, i in enumerate(f):
            need = b[j] if comp == "max-min" else (b[j] / A[i, j] if b[j] > 0 else 0.0)
            x[i] = max(x[i], need)
        cands.setdefault(tuple(np.round(x, 9)), x)
    pts = list(cands.values())
    return [p for p in pts
            if not any(np.all(q <= p + TOL) and np.any(q < p - TOL) for q in pts)]


def canon(vectors):
    """Order-free, rounding-stable form of a set of vectors."""
    return sorted({tuple(float(v) for v in np.round(np.asarray(x, float), 9)) for x in vectors})


def pairwise_incomparable(vectors, tol=TOL):
    """No vector is <= another everywhere and < it somewhere."""
    vs = [np.asarray(v, float) for v in vectors]
    for a, b in itertools.permutations(vs, 2):
        if np.all(a <= b + tol) and np.any(a < b - tol):
            return False
    return True


def linear_optimum(c, minimals, x_hat):
    """min over minimal m of c⁺·m + c⁻·x̂: the optimum of c·x over the solution set."""
    cp, cm = np.maximum(c, 0.0), np.minimum(c, 0.0)
    return min(float(cp @ np.asarray(m) + cm @ x_hat) for m in minimals)


# ---------------------------------------------------------------------------
# column orientation A ⊗ x = b, relation equations, learners
# ---------------------------------------------------------------------------

def greatest_column(A, b):
    """Greatest x with max_j min(A[i, j], x[j]) <= b[i]."""
    return godel(A, b[:, None]).min(axis=0)


def godel_left_division(R, T):
    """U[x, z] = min_y godel(R[y, x], T[y, z]): greatest U with R∘U <= T."""
    return godel(R[:, :, None], T[:, None, :]).min(axis=0)


def learned_greatest(comp, X, Y):
    """W[k, j] = min_i res(X[i, k], Y[i, j]): greatest W with X∘W <= Y."""
    return RESIDUUM[comp](X[:, :, None], Y[:, None, :]).min(axis=0)


def triangle_subjects(R):
    """U[j, m] = mean over criteria k of godel(R[k, j], R[k, m])."""
    return godel(R[:, :, None], R[:, None, :]).mean(axis=0)


# ---------------------------------------------------------------------------
# neutrosophic grades: a grade is (indet, coeff), coefficient 0 is real
# ---------------------------------------------------------------------------

def _norm(indet, coeff):
    return indet & (coeff > 0.0), coeff


def _graded_pick(ka, ca, kb, cb, take_smaller):
    tie = np.abs(ca - cb) <= TOL
    a_wins = (ca < cb) if take_smaller else (ca > cb)
    coeff = np.where(tie, np.minimum(ca, cb) if take_smaller else np.maximum(ca, cb),
                     np.where(a_wins, ca, cb))
    kind = np.where(ka == kb, ka, np.where(tie, True, np.where(a_wins, ka, kb)))
    return _norm(kind, coeff)


def _absorbing_min(ka, ca, kb, cb):
    ka, kb = ka & (ca > 0), kb & (cb > 0)
    other_k = np.where(ka, kb, ka)
    other_c = np.where(ka, cb, ca)
    either = ka | kb
    zero = ~other_k & (other_c == 0.0)
    kind = either & ~zero
    coeff = np.where(either, np.where(zero, 0.0, 1.0), np.minimum(ca, cb))
    return kind, coeff


def _absorbing_max(ka, ca, kb, cb):
    ka, kb = ka & (ca > 0), kb & (cb > 0)
    either = ka | kb
    return either, np.where(either, 1.0, np.maximum(ca, cb))


def neutro_compose(mode, Pk, Pc, Qk, Qc):
    """Max-min composition of neutrosophic matrices given as (indet, coeff)
    array pairs, folded over the middle index in order like the definition."""
    if mode == "graded":
        tmin = lambda ka, ca, kb, cb: _graded_pick(ka, ca, kb, cb, True)
        tmax = lambda ka, ca, kb, cb: _graded_pick(ka, ca, kb, cb, False)
    else:
        tmin, tmax = _absorbing_min, _absorbing_max
    acc_k, acc_c = tmin(Pk[:, 0, None], Pc[:, 0, None], Qk[None, 0], Qc[None, 0])
    for j in range(1, Pk.shape[1]):
        tk, tc = tmin(Pk[:, j, None], Pc[:, j, None], Qk[None, j], Qc[None, j])
        acc_k, acc_c = tmax(acc_k, acc_c, tk, tc)
    return acc_k, acc_c
