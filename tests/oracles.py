"""Independent brute-force oracles shared by the unit and acceptance tests."""

import itertools

import numpy as np

from relq.grades import TOL
from relq.solve import FreProblem, InfeasibleError, attain_value, binding_sets, max_solution


def grid_solutions(p: FreProblem, grid):
    """All grid vectors x with x ∘ A = b (exhaustive enumeration)."""
    sols = []
    for combo in itertools.product(grid, repeat=p.m):
        x = np.array(combo, float)
        if p.is_solution(x, tol=1e-9):
            sols.append(x)
    return sols


def grid_in_union(x, solset, tol=1e-9):
    """Membership of x in ∪ [minimal, x_hat]."""
    if not solset.feasible:
        return False
    if np.any(x > solset.x_hat + tol):
        return False
    return any(np.all(x >= m - tol) for m in solset.minimals)


def brute_solvable_unique(A, b, grid):
    """Solvability and uniqueness of A ⊗ x = b (max-min, orientation rows
    of A against b) by exhaustive grid enumeration."""
    A = np.asarray(A, float)
    b = np.asarray(b, float).ravel()
    m, n = A.shape
    sols = []
    for combo in itertools.product(grid, repeat=n):
        x = np.array(combo, float)
        lhs = np.array([np.max(np.minimum(A[i], x)) for i in range(m)])
        if np.all(np.abs(lhs - b) <= 1e-9):
            sols.append(x)
    return len(sols) > 0, len(sols) == 1


def minimal_set_key(minimals, ndig=9):
    return sorted(tuple(round(float(v), ndig) for v in m) for m in minimals)


def _combination_points(p: FreProblem, start, cap):
    """For every binding-row combination f ∈ I_1×…×I_n, the point that raises
    each chosen row f(j) from start(x_hat) to its attaining value of j."""
    x_hat = max_solution(p)
    if x_hat is None:
        raise InfeasibleError("infeasible")
    sets = binding_sets(p, x_hat)
    size = 1
    for s in sets:
        size *= max(len(s), 1)
    if size > cap:
        raise RuntimeError(f"combination count {size} exceeds cap {cap}")
    vals = {(i, j): attain_value(p, i, j) for j, s in enumerate(sets) for i in s}
    for f in itertools.product(*sets):
        x = start(x_hat)
        for j, i in enumerate(f):
            x[i] = max(x[i], vals[(i, j)])
        yield x


def product_minimals(p: FreProblem, cap=10 ** 4):
    """Minimal solutions from the full product of binding rows: every
    combination's point, kept when no other point lies strictly below it."""
    pts = list(_combination_points(p, np.zeros_like, cap))
    out = []
    for x in pts:
        if any(np.all(y <= x + 1e-9) and np.any(y < x - 1e-9) for y in pts):
            continue
        if not any(np.all(np.abs(y - x) <= 1e-9) for y in out):
            out.append(x)
    return out


def brute_force_linear(p, cap=10 ** 4):
    """Optimum of a LinearFreProblem: enumerate every binding combination
    (x_hat on the negative-cost rows) and take the best."""
    best_x, best_z = None, np.inf
    for x in _combination_points(p.base, lambda x_hat: np.where(p.c < 0.0, x_hat, 0.0), cap):
        z = float(np.dot(p.c, x))
        if z < best_z - 1e-12:
            best_x, best_z = x, z
    return best_x, best_z


# ---------------------------------------------------------------------------
# Cell-by-cell loops the array kernels must reproduce bit for bit
# ---------------------------------------------------------------------------

def sup_t_loops(t, P, Q):
    """out[i,k] = max_j t(P[i,j], Q[j,k]) with the scalar t-norm."""
    out = np.empty((P.shape[0], Q.shape[1]))
    for i in range(P.shape[0]):
        for k in range(Q.shape[1]):
            out[i, k] = max(t(P[i, j], Q[j, k]) for j in range(P.shape[1]))
    return out


def inf_implication_loops(imp, P, Q):
    """out[i,k] = min_j imp(P[i,j], Q[j,k]) with a scalar implication."""
    out = np.empty((P.shape[0], Q.shape[1]))
    for i in range(P.shape[0]):
        for k in range(Q.shape[1]):
            out[i, k] = min(imp(P[i, j], Q[j, k]) for j in range(P.shape[1]))
    return out


# the implications in their scalar form
SCALAR_IMPLICATIONS = {
    "godel": lambda a, b: 1.0 if a <= b + TOL else b,
    "lukasiewicz": lambda a, b: min(1.0, 1.0 - a + b),
    "kleene-dienes": lambda a, b: max(1.0 - a, b),
    "crisp": lambda a, b: 0.0 if a > 0.5 and b < 0.5 else 1.0,
}


def delta_rule_B_loops(A, B):
    """w_kj = min of the targets b_ij over samples with a_ik > b_ij + TOL."""
    W = np.ones((A.shape[1], B.shape[1]))
    for i in range(A.shape[0]):
        for k in range(A.shape[1]):
            for j in range(B.shape[1]):
                if A[i, k] > B[i, j] + TOL and B[i, j] < W[k, j]:
                    W[k, j] = B[i, j]
    return W


def delta_rule_K_loops(t, A, B):
    """Rule K one sample at a time: the weights and the (i, k, j) cells
    whose violation the residuum cannot repair."""
    W = np.ones((A.shape[1], B.shape[1]))
    fallback = []
    for i in range(A.shape[0]):
        for k in range(A.shape[1]):
            for j in range(B.shape[1]):
                cand = t.residuum(A[i, k], B[i, j])
                if t(W[k, j], A[i, k]) > B[i, j] + TOL and \
                        abs(t(cand, A[i, k]) - B[i, j]) > 1e-7:
                    fallback.append((i, k, j))
                if cand < W[k, j]:
                    W[k, j] = cand
    return W, fallback
