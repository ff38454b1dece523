"""Triangle relational products, checklist measures, diagnosis sets, and
rule-based control.

Triangle products average an implication operator across criteria (or
subjects) to grade how far one row's marks imply another's.  The diagnosis
operations compute potential / relevant / covering disorder sets from
certain and forbidden manifestation knowledge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grades import MIN, TOL, as_grades, check_integer, godel
from .relations import (MaxMin, Relation, as_grid, compose, inf_implication_compose,
                        sup_t_compose)


# ---------------------------------------------------------------------------
# Triangle products
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObservationMatrix:
    """criteria × subjects grid with labels."""

    relation: Relation
    criteria: tuple
    subjects: tuple

    def __post_init__(self):
        rel = self.relation if isinstance(self.relation, Relation) else Relation(self.relation)
        object.__setattr__(self, "relation", rel)
        object.__setattr__(self, "criteria", tuple(self.criteria))
        object.__setattr__(self, "subjects", tuple(self.subjects))
        if len(set(self.criteria)) != len(self.criteria) or \
                len(set(self.subjects)) != len(self.subjects):
            raise ValueError("labels must be unique")
        if rel.shape != (len(self.criteria), len(self.subjects)):
            raise ValueError("label counts do not match the grid")


def _grid_of(R):
    if isinstance(R, ObservationMatrix):
        return R.relation.cells
    return as_grid(R)


def triangle_product_subjects(R, imp):
    """U[j,m] = mean over criteria k of imp(R[k,j], R[k,m])."""
    grid = _grid_of(R)
    # summed one criterion at a time, in order, like a scalar running sum
    return Relation(sum(imp(row[:, None], row[None, :]) for row in grid) / grid.shape[0])


def triangle_product_criteria(R, imp):
    """V[i,k] = mean over subjects j of imp(R[i,j], R[k,j])."""
    return triangle_product_subjects(_grid_of(R).T, imp)


def checklist_product(marks, imp):
    """W[i,j] = imp(rowshare_i, rowshare_j) over subjects×items marks."""
    grid = _grid_of(marks)
    if not np.all((np.abs(grid) <= TOL) | (np.abs(grid - 1) <= TOL)):
        raise ValueError("checklist marks must be binary")
    shares = grid.mean(axis=1)
    return Relation(imp(shares[:, None], shares[None, :]))


@dataclass(frozen=True)
class ContingencyTable:
    a00: int
    a01: int
    a10: int
    a11: int

    @property
    def n(self):
        return self.a00 + self.a01 + self.a10 + self.a11

    @classmethod
    def from_marks(cls, u, v):
        u = np.asarray(u).astype(bool)
        v = np.asarray(v).astype(bool)
        return cls(
            int(np.sum(~u & ~v)), int(np.sum(~u & v)),
            int(np.sum(u & ~v)), int(np.sum(u & v)),
        )


def classical_support(table: ContingencyTable):
    """Support for "u implies v": 1 − a10/n."""
    if table.n == 0:
        raise ValueError("empty table")
    return 1.0 - table.a10 / table.n


# ---------------------------------------------------------------------------
# Diagnosis
# ---------------------------------------------------------------------------

@dataclass
class DiagnosisKnowledge:
    disorders: list
    manifestations: list
    certain: dict      # disorder -> set of manifestations certainly produced
    forbidden: dict    # disorder -> set of manifestations never produced
    observed_present: set = field(default_factory=set)
    observed_absent: set = field(default_factory=set)

    def __post_init__(self):
        self.observed_present = set(self.observed_present)
        self.observed_absent = set(self.observed_absent)
        muniv = set(self.manifestations)
        if self.observed_present & self.observed_absent:
            raise ValueError("a manifestation cannot be both present and absent")
        for d in self.disorders:
            cp = set(self.certain.get(d, ()))
            cf = set(self.forbidden.get(d, ()))
            if cp & cf:
                raise ValueError(f"disorder {d!r}: certain and forbidden sets overlap")
            if not cp <= muniv or not cf <= muniv:
                raise ValueError(f"disorder {d!r}: unknown manifestation")
            self.certain[d] = cp
            self.forbidden[d] = cf


def diagnose(k: DiagnosisKnowledge):
    """Potential disorders (no contradiction with the observations), the
    weakly relevant subset, and the covering subset."""
    d_hat, d_star, d_star2 = [], [], []
    for d in k.disorders:
        cp, cf = k.certain[d], k.forbidden[d]
        if cp & k.observed_absent or cf & k.observed_present:
            continue
        d_hat.append(d)
        if cp & k.observed_present or cf & k.observed_absent:
            d_star.append(d)
        if cp >= k.observed_present and cf >= k.observed_absent:
            d_star2.append(d)
    return {"D_hat": d_hat, "D_hat_star": d_star, "D_hat_star_star": d_star2}


def diagnose_joint(k: DiagnosisKnowledge, candidate_subsets, additive=True,
                   joint_sets=None):
    """Admit disorder subsets whose joint manifestation sets fit the
    observations; additive joints use union-of-certain / intersection-of-
    forbidden.  Result is ordered by cardinality (parsimony first)."""
    admitted = []
    for subset in candidate_subsets:
        subset = tuple(subset)
        if not set(subset) <= set(k.disorders):
            raise ValueError(f"unknown disorders in subset {subset!r}")
        if additive:
            cp = set().union(*(k.certain[d] for d in subset)) if subset else set()
            if subset:
                cf = set.intersection(*(set(k.forbidden[d]) for d in subset))
            else:
                cf = set(k.manifestations)
        else:
            if joint_sets is None or subset not in joint_sets:
                raise ValueError("non-additive joints need explicit joint_sets")
            cp, cf = (set(s) for s in joint_sets[subset])
        if not (cp & k.observed_absent) and not (cf & k.observed_present):
            admitted.append(subset)
    return sorted(admitted, key=lambda s: (len(s), s))


def explain_at_least_k(R, Mplus, kk, imp=godel):
    """Per-disorder degree that at least k present manifestations are
    implied: the k-th largest implication degree (permutation-free)."""
    grid = as_grid(R, "R")
    nd, nm = grid.shape
    Mplus = as_grades(Mplus, nm, "Mplus", "manifestations (columns of R)")
    check_integer("k", kk, 0)
    if kk > nm:
        raise ValueError("k exceeds the number of manifestations")
    if kk == 0:
        return np.ones(nd)
    return np.sort(imp(Mplus, grid), axis=1)[:, nm - kk]


# ---------------------------------------------------------------------------
# Rule-based control
# ---------------------------------------------------------------------------

def mamdani_control(rules, x_input, method="simple"):
    """Fire a rule base (X_i, U_i) on a fuzzy input over shared grids.

    simple: clip each consequent at the possibility of its antecedent and
    take the union.  sup-t-fre: intersect the Goedel residua R_i and compose.
    adjoint-godel: union the Cartesian rules and apply the inf-Goedel
    division.  For one-hot inputs adjoint-godel coincides with simple.
    """
    x_input = as_grades(x_input, name="x_input")
    rules = list(rules)
    if not rules:
        raise ValueError("empty rule base")
    nu = np.size(rules[0][1])
    Xs = np.array([as_grades(X, x_input.size, "antecedent", "input grades") for X, _ in rules])
    Us = np.array([as_grades(U, nu, "consequent", "grades of the first consequent")
                   for _, U in rules])
    if method == "simple":
        possibility = sup_t_compose(MIN, Xs, x_input[:, None])[:, 0]
        return sup_t_compose(MIN, possibility[None, :], Us)[0]
    if method == "sup-t-fre":
        R = inf_implication_compose(godel, Xs.T, Us)
        return compose(MaxMin(), x_input.reshape(1, -1), R).cells[0]
    if method == "adjoint-godel":
        R = sup_t_compose(MIN, Xs.T, Us)
        return inf_implication_compose(godel, x_input.reshape(1, -1), R)[0]
    raise ValueError(f"unknown method {method!r}")


def defuzzify_cog(universe, U):
    """Centre of gravity Σ u·U(u) / Σ U(u)."""
    universe = np.asarray(universe, float).ravel()
    U = as_grades(U, universe.size, "U", "points of the universe")
    total = float(np.sum(U))
    if total <= TOL:
        raise ValueError("empty control output")
    return float(np.dot(universe, U) / total)
