"""Independent brute-force oracles shared by the unit and acceptance tests."""

import itertools
import math

import numpy as np

from relq.grades import CLOSE_ATOL, CLOSE_RTOL, OBJECTIVE_SLACK, PRODUCT, ROUNDING, TOL
from relq.neutro import I, NeutroRelation, R, as_neutro
from relq.solve import FreProblem, InfeasibleError, binding_sets, max_solution


def attain_value(p: FreProblem, i, j):
    """Smallest x_i with t(x_i, a_ij) = b_j, for one binding pair (i, j)."""
    return p.tnorm().min_section_solution(p.A[i, j], p.b[j])


def grid_solutions(p: FreProblem, grid):
    """All grid vectors x with x ∘ A = b (exhaustive enumeration)."""
    sols = []
    for combo in itertools.product(grid, repeat=p.m):
        x = np.array(combo, float)
        if p.is_solution(x):
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
    # every grid point x at once, one row each; lhs[k, i] = max_j min(a_ij, x_j)
    X = np.array(list(itertools.product(grid, repeat=A.shape[1])), float)
    lhs = np.minimum(A[None], X[:, None, :]).max(axis=2)
    count = int(np.all(np.abs(lhs - b) <= 1e-9, axis=1).sum())
    return count > 0, count == 1


def minimal_set_key(minimals, ndig=9):
    return sorted(tuple(round(float(v), ndig) for v in m) for m in minimals)


def _combination_points(p: FreProblem, start, cap):
    """For every binding-row combination f ∈ I_1×…×I_n, the point that raises
    each chosen row f(j) from start(x_hat) to its attaining value of j,
    capped at x_hat as ``binding_columns`` caps it (on a TOL-nudged system
    the uncapped value can leave [0, x_hat])."""
    x_hat = max_solution(p)
    if x_hat is None:
        raise InfeasibleError("infeasible")
    sets = binding_sets(p, x_hat)
    size = 1
    for s in sets:
        size *= max(len(s), 1)
    if size > cap:
        raise RuntimeError(f"combination count {size} exceeds cap {cap}")
    vals = {(i, j): min(attain_value(p, i, j), x_hat[i]) for j, s in enumerate(sets) for i in s}
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


def archimedean_buildup(p: FreProblem):
    """Minimal solutions built up one constraint at a time: each partial
    point is raised by every binding row of the next constraint (to its
    attaining value, capped at x_hat), and the level is cut back to its
    minimal elements before the next one."""
    x_hat = max_solution(p)
    if x_hat is None:
        raise InfeasibleError("infeasible")
    partial = [np.zeros(p.m)]
    for j, s in enumerate(binding_sets(p, x_hat)):
        level = []
        for base in partial:
            for i in s:
                x = base.copy()
                x[i] = max(x[i], min(attain_value(p, i, j), x_hat[i]))
                level.append(x)
        partial = dominance_filter_loops(level)
    return partial


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


def _bisect_scalar(low):
    """60 halvings of [0, 1] toward where low(x) stops holding: (lo, hi)."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if low(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def generator_cells(f, f_inv, a, b):
    """The t-norm of generator f (inverse f_inv, or None for a bisection on
    f), its residuum and its min_section_solution in every cell of a and b,
    one Python float at a time."""
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            f_zero = f(0.0)
    except (ValueError, ZeroDivisionError, OverflowError):
        f_zero = math.inf

    def pseudo_inverse(y):
        if y <= 0.0:
            return 1.0
        if y >= f_zero:
            return 0.0
        if f_inv is not None:
            return min(1.0, max(0.0, f_inv(y)))
        return _bisect_scalar(lambda x: f(x) > y)[1]

    def t(a, b):
        return pseudo_inverse((f(a) if a > 0.0 else f_zero) + (f(b) if b > 0.0 else f_zero))

    def residuum(a, b):
        if t(a, 1.0) <= b + TOL:
            return 1.0
        return _bisect_scalar(lambda x: t(a, x) <= b + ROUNDING)[0]

    def min_section_solution(a, b):
        if b <= 0.0:
            return 0.0
        return _bisect_scalar(lambda x: not t(a, x) >= b - ROUNDING)[1]

    pairs = list(zip(np.ravel(a).tolist(), np.ravel(b).tolist()))
    return tuple(np.reshape([op(x, y) for x, y in pairs], np.shape(a))
                 for op in (t, residuum, min_section_solution))


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


# ---------------------------------------------------------------------------
# Per-cell neutrosophic rules and loops the (indet, coeff) arrays must
# reproduce exactly
# ---------------------------------------------------------------------------

def _absorbing_normal(g):
    """In absorbing mode every nonzero indeterminate acts as the unlabeled I."""
    if g.is_indet and g.coeff > 0.0:
        return I(1.0)
    return g


def neutro_min_scalar(mode, a, b):
    a, b = as_neutro(a), as_neutro(b)
    if mode == "absorbing":
        a, b = _absorbing_normal(a), _absorbing_normal(b)
        if a.is_indet or b.is_indet:
            other = b if a.is_indet else a
            if other.is_real and other.coeff == 0.0:
                return R(0.0)
            return I(1.0)
        return R(min(a.coeff, b.coeff))
    if a.kind == b.kind:
        return a if a.coeff <= b.coeff else b
    if abs(a.coeff - b.coeff) <= TOL:
        return I(min(a.coeff, b.coeff))
    return a if a.coeff < b.coeff else b


def neutro_max_scalar(mode, a, b):
    a, b = as_neutro(a), as_neutro(b)
    if mode == "absorbing":
        a, b = _absorbing_normal(a), _absorbing_normal(b)
        if a.is_indet or b.is_indet:
            return I(1.0)
        return R(max(a.coeff, b.coeff))
    if a.kind == b.kind:
        return a if a.coeff >= b.coeff else b
    if abs(a.coeff - b.coeff) <= TOL:
        return I(max(a.coeff, b.coeff))
    return a if a.coeff > b.coeff else b


def neutro_compose_loops(mode, P, Q):
    """Max-min composition of NeutroRelations, one scalar min/max per term."""
    out = []
    for i in range(P.rows):
        row = []
        for k in range(Q.cols):
            acc = None
            for j in range(P.cols):
                term = neutro_min_scalar(mode, P[i, j], Q[j, k])
                acc = term if acc is None else neutro_max_scalar(mode, acc, term)
            row.append(acc)
        out.append(row)
    return NeutroRelation(out)


def _neutro_at_scalar(a, b):
    if a.kind == b.kind:
        if a.is_real:
            return R(SCALAR_IMPLICATIONS["godel"](a.coeff, b.coeff))
        if a.coeff <= b.coeff + TOL:
            return R(1.0)
        return b
    return I(1.0)


def nre_max_solution_loops(A_N, b_N, mode):
    b_N = [as_neutro(v) for v in b_N]
    x_hat = []
    for i in range(A_N.rows):
        acc = None
        for j in range(A_N.cols):
            term = _neutro_at_scalar(A_N[i, j], b_N[j])
            acc = term if acc is None else neutro_min_scalar(mode, acc, term)
        x_hat.append(acc)
    image = neutro_compose_loops(mode, NeutroRelation([x_hat]), A_N)
    if all(image[0, j] == b_N[j] for j in range(A_N.cols)):
        return x_hat
    return None


def n_pseudo_char_loops(A_N, b_N):
    b_N = [as_neutro(v) for v in b_N]
    out = []
    for i in range(A_N.rows):
        row = []
        for j in range(A_N.cols):
            a, b = A_N[i, j], b_N[j]
            if a.kind != b.kind:
                row.append("I")
            elif abs(a.coeff - b.coeff) <= TOL:
                row.append("0")
            elif a.coeff > b.coeff:
                row.append("1" if a.is_real else "I")
            else:
                row.append("-1" if a.is_real else "-I")
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# The certificate and the equivalence reduction, cell by cell
# ---------------------------------------------------------------------------

def gavalec_loops(A, b):
    """(solvable, unique, x_bar, I, K, touches) of A ⊗ x = b, walking the
    grid once for x̄ and once for the I and K sets."""
    A = np.asarray(A, float)
    b = np.asarray(b, float).ravel()
    m, n = A.shape
    touches = 0
    x_bar = np.ones(n)
    for j in range(n):
        for i in range(m):
            touches += 1
            if A[i, j] > b[i] + TOL and b[i] < x_bar[j]:
                x_bar[j] = b[i]
    I_sets, K_sets = [], []
    for j in range(n):
        Ij, Kj = [], []
        for i in range(m):
            touches += 1
            if A[i, j] >= b[i] - TOL and abs(b[i] - x_bar[j]) <= TOL:
                Ij.append(i)
            elif abs(A[i, j] - b[i]) <= TOL and b[i] < x_bar[j] - TOL:
                Kj.append(i)
        I_sets.append(Ij)
        K_sets.append(Kj)
    covered = [False] * m
    in_k = [False] * m
    i_count = [0] * m
    for j in range(n):
        for i in I_sets[j]:
            covered[i] = True
            i_count[i] += 1
        for i in K_sets[j]:
            covered[i] = True
            in_k[i] = True
    solvable = all(covered)
    unique = solvable
    if solvable:
        for j in range(n):
            if x_bar[j] <= TOL:
                continue
            if not any(i_count[i] == 1 and not in_k[i] for i in I_sets[j]):
                unique = False
                break
    return solvable, unique, x_bar, I_sets, K_sets, touches


def equivalence_reduce_loops(A, b):
    """The max-min equivalence reduction, a result the book surveys: zero
    a_ij1 (a_ij1 >= b_j1 > 0) while some j2 has b_j1 > b_j2 and a_ij2 > b_j2,
    sweeping until nothing changes.  It preserves the solution set."""
    A = np.array(A, float)
    b = np.asarray(b, float).ravel()
    m, n = A.shape
    changed = True
    while changed:
        changed = False
        for i in range(m):
            for j1 in range(n):
                if A[i, j1] < b[j1] - TOL or A[i, j1] <= TOL:
                    continue
                for j2 in range(n):
                    if b[j1] > b[j2] + TOL and A[i, j2] > b[j2] + TOL:
                        A[i, j1] = 0.0
                        changed = True
                        break
    return A


# ---------------------------------------------------------------------------
# Point-against-set tests one member at a time
# ---------------------------------------------------------------------------

def dominance_filter_loops(cands, tol=TOL):
    """Cell-wise minimal elements, deduped and sorted: each candidate is
    compared with the survivors one at a time, forwards then backwards."""
    out = []
    for c in sorted(cands, key=lambda v: tuple(v)):
        if not any(np.all(o <= c + tol) for o in out):
            out.append(np.asarray(c, float))
    final = []
    for c in reversed(out):
        if not any(np.all(o <= c + tol) for o in final):
            final.insert(0, c)
    return final



def irredundant_loops(x, V, tol=TOL):
    """Whether every nonzero x_i, for some constraint j, is within tol of
    V[i, j] and the only row covering j (x_l >= V[l, j] - tol)."""
    m, n = V.shape
    for i in range(m):
        if x[i] != 0.0 and not any(
                x[i] <= V[i, j] + tol
                and [l for l in range(m) if x[l] >= V[l, j] - tol] == [i]
                for j in range(n)):
            return False
    return True

def irredundant_chains_loops(x, V, tol=TOL):
    """Whether every nonzero x_i is a finite V[i, k] and, for some constraint
    j, the only row covering j (x_l >= V[l, j] - tol), with V[i, j] <= x_i
    joined to x_i by values of row i of V at most tol apart."""
    m, n = V.shape
    for i in range(m):
        if x[i] == 0.0:
            continue
        low = x[i]
        for v in sorted((v for v in V[i] if v < x[i]), reverse=True):
            if low > v + tol:
                break
            low = v
        if x[i] not in V[i] or not any(
                low <= V[i, j] <= x[i]
                and [l for l in range(m) if x[l] >= V[l, j] - tol] == [i]
                for j in range(n)):
            return False
    return True


def dominates_pair(z1, z2, tol=1e-12):
    z1 = np.asarray(z1, float)
    z2 = np.asarray(z2, float)
    return bool(np.all(z1 <= z2 + tol) and np.any(z1 < z2 - tol))


def pareto_add_loops(points, x, z):
    """ParetoArchive.add on a list of (x, z) pairs, one archived point at a
    time; returns (added, new points)."""
    z = np.asarray(z, float)
    if any(dominates_pair(pz, z) or np.allclose(pz, z) for _, pz in points):
        return False, points
    points = [(px, pz) for px, pz in points if not dominates_pair(z, pz)]
    points.append((np.asarray(x, float).copy(), z))
    return True, points


def pareto_replay_loops(points, X, Z):
    """ParetoArchive.extend on a list of (x, z) pairs in one point-major
    pass (the objectives on the last axis): dominance and closeness of every
    batch point against the archived and the batch points, then every batch
    point replayed in order.  Returns (the adds, the new points)."""
    X, Z = np.array(X, float), np.array(Z, float)
    n = len(points)
    zs = np.concatenate([np.reshape([z for _, z in points], (n, Z.shape[1])), Z])

    def dom(z1, z2):
        return ((z1 <= z2 + OBJECTIVE_SLACK).all(axis=-1)
                & (z1 < z2 - OBJECTIVE_SLACK).any(axis=-1))

    close = (np.abs(zs[:, None] - Z[None]) <= CLOSE_ATOL + CLOSE_RTOL * np.abs(Z)).all(axis=-1)
    blocked = (dom(zs[:, None], Z[None]) | close).T.tolist()
    drops = dom(Z[:, None], zs[None]).tolist()
    live, added = list(range(n)), []
    for k in range(len(Z)):
        added.append(not any(blocked[k][u] for u in live))
        if added[-1]:
            live = [u for u in live if not drops[k][u]] + [n + k]
    return added, [points[u] if u < n else (X[u - n], Z[u - n]) for u in live]


def repair_rounds_loops(ctx, X, rng, avoid=None):
    """_GaContext.feasible recomputing, each round, t(x_i, a_ij) for every
    row left to repair and every cell: X repaired in place and returned."""
    t, A, b = ctx.t, ctx.A, ctx.b
    todo = np.flatnonzero(~(np.abs(t.apply(X[:, :, None], A).max(axis=1) - b) <= TOL).all(axis=1))
    X[todo] = np.clip(X[todo], 0.0, ctx.x_hat)
    avoid = np.full(len(X), -1) if avoid is None else avoid
    while todo.size:
        missed = ~(np.abs(t.apply(X[todo, :, None], A) - b) <= TOL).any(axis=1)
        todo, j = todo[missed.any(axis=1)], missed[missed.any(axis=1)].argmax(axis=1)
        pool = ctx.binding[j]
        pool &= (np.arange(len(ctx.x_hat)) != avoid[todo, None]) | (
            pool.sum(axis=1, keepdims=True) < 2)
        i = np.where(pool, rng.random(pool.shape), -1.0).argmax(axis=1)
        X[todo, i] = np.maximum(X[todo, i], ctx.attain[j, i])
    return X


def contains_loops(solset, x, tol=TOL):
    """SolutionSet.contains, one minimal solution at a time."""
    if not solset.feasible:
        return False
    x = np.asarray(x, float)
    if np.any(x > solset.x_hat + tol):
        return False
    return any(np.all(x >= m - tol) for m in solset.minimals)


def irreflexivity_loops(R, T):
    """For every x some y has R[y,x] > TOL and T[y,x] <= TOL, cell by cell."""
    R, T = np.asarray(R, float), np.asarray(T, float)
    return all(any(R[y, x] > TOL and T[y, x] <= TOL for y in range(R.shape[0]))
               for x in range(R.shape[1]))


def contradictory_pairs_loops(pairs):
    """Whether two pairs share a pattern (within TOL) but not the output."""
    pairs = [(np.asarray(p, float), y) for p, y in pairs]
    return any(y1 != y2 and np.all(np.abs(p1 - p2) <= TOL)
               for (p1, y1), (p2, y2) in itertools.combinations(pairs, 2))


def sre_solvability_loops(premises, mode):
    """sre_solvability_criteria with each support point of each premise
    checked against the other premises one at a time."""
    premises = [np.asarray(a, float) for a in premises]
    for idx, a in enumerate(premises):
        others = [o for k, o in enumerate(premises) if k != idx]
        exclusive = [s for s in range(a.shape[0])
                     if a[s] > TOL and all(o[s] <= TOL for o in others)]
        if mode == "inf-rho":
            if not exclusive:
                return False
        else:
            support_vals = {round(float(a[s]), 12) for s in range(a.shape[0]) if a[s] > TOL}
            if not support_vals <= {round(float(a[s]), 12) for s in exclusive}:
                return False
    return True


def fuzzy_c_means_loops(points, C, m=2.0, tol=1e-6, max_iter=300, rng_seed=0):
    """fuzzy_c_means with the membership update one point at a time: a point
    within distance 1e-9 of a centre belongs wholly to the first such centre."""
    X = np.asarray(points, float)
    P = X.shape[0]
    rng = np.random.default_rng(rng_seed)
    U = rng.random((C, P))
    U /= U.sum(axis=0, keepdims=True)
    centers = np.zeros((C, X.shape[1]))
    it = 0
    for it in range(1, max_iter + 1):
        Um = U ** m
        centers_new = np.divide(Um @ X, Um.sum(axis=1, keepdims=True), out=centers.copy(),
                                where=Um.any(axis=1, keepdims=True))
        d2 = np.maximum(
            ((X[None, :, :] - centers_new[:, None, :]) ** 2).sum(axis=2), 0.0
        )
        U_new = np.zeros_like(U)
        for pidx in range(P):
            zero = np.where(d2[:, pidx] <= 1e-18)[0]
            if zero.size:
                U_new[zero[0], pidx] = 1.0
            else:
                inv = (1.0 / d2[:, pidx]) ** (1.0 / (m - 1.0))
                U_new[:, pidx] = inv / inv.sum()
        moved = float(np.max(np.abs(centers_new - centers)))
        centers, U = centers_new, U_new
        if moved < tol:
            break
    objective = float(((U ** m) * np.maximum(
        ((X[None, :, :] - centers[:, None, :]) ** 2).sum(axis=2), 0.0
    )).sum())
    return centers, U, objective, it


def estimate_block_relations_loops(series, tol=1e-9):
    """estimate_block_relations one block row at a time: each row the
    residua of the block's inputs at its target, then the composition
    identity checked row by row."""
    out = []
    for blk in series.blocks:
        qs = series.q[list(blk)]
        rs = series.r[list(blk)]
        P = np.empty((len(blk), len(blk)))
        for row, ridx in enumerate(blk):
            target = series.r[ridx]
            if np.max(qs) < target - tol:
                raise ValueError(f"row {ridx} target {target} unattainable from inputs")
            P[row] = PRODUCT.residuum(qs, target)
        for row in range(len(blk)):
            got = float(np.max(P[row] * qs))
            if abs(got - rs[row]) > tol:
                raise ValueError(f"composition identity failed at block row {row}")
        peak_pos = int(np.argmax(rs))
        out.append({"block": blk, "P": np.clip(P, 0.0, 1.0), "peak_index": blk[peak_pos],
                    "peak_value": rs[peak_pos]})
    return out


def chemical_flow_loops(inputs, targets, mask, eta=0.5, max_iter=10_000, tol=1e-6):
    """demo_chemical_flow with the weight update cell by cell: every unmasked
    weight of an overshooting node whose term exceeds the node's target is
    lowered by eta times the node's error."""
    x = np.asarray(inputs, float)
    r = np.asarray(targets, float)
    W = np.where(mask, 1.0, 0.0)
    it = 0
    for it in range(1, max_iter + 1):
        y = np.clip(np.max(W * x[None, :], axis=1), 0.0, 1.0)
        if float(np.max(np.abs(y - r))) < tol:
            break
        for i in range(5):
            if y[i] > r[i] + tol / 10:
                for j in range(5):
                    if mask[i, j] and W[i, j] * x[j] > r[i]:
                        W[i, j] = max(0.0, W[i, j] - eta * (y[i] - r[i]))
    y = np.clip(np.max(W * x[None, :], axis=1), 0.0, 1.0)
    return W, y, it
