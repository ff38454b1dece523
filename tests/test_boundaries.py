"""Every public entry point that takes grades rejects a bad grid or vector
with a ValueError that names the argument: NaN, a grade above 1, a 3-d or
empty grid, a vector of the wrong length.  Algorithm parameters and the
enumeration cap are checked where they enter."""

import re

import numpy as np
import pytest

from relq.datasets import PartitionedSeries
from relq.grades import MIN, godel, subsethood
from relq.learn import TrainerConfig, TrainingSet, equality_error
from relq.optimize import GaConfig, fuzzy_c_means, pseudo_char_matrix
from relq.products import defuzzify_cog, explain_at_least_k, mamdani_control
from relq.relations import (Relation, alpha_cut, inf_implication_compose, relation_properties,
                            sup_t_compose)
from relq.solve import (FreProblem, binding_sets, gavalec_certificate, irreflexivity_condition,
                        kagei_type1, kagei_type2_unique, solve, specificity_shift_fit,
                        sre_solvability_criteria)

P = FreProblem([[0.5, 0.3], [0.7, 0.3]], [0.5, 0.3])
A12 = [[0.5, 0.3]]
HALVES = [0.5, 0.5]

# entry point: (the call with one grid argument g, that argument's name)
GRIDS = {
    "Relation": (lambda g: Relation(g), "relation cells"),
    "FreProblem.A": (lambda g: FreProblem(g, [0.5]), "A"),
    "TrainingSet.inputs": (lambda g: TrainingSet(g, [[0.5]]), "inputs"),
    "TrainingSet.targets": (lambda g: TrainingSet([[0.5]], g), "targets"),
    "gavalec_certificate.A": (lambda g: gavalec_certificate(g, [0.5]), "A"),
    "pseudo_char_matrix.A": (lambda g: pseudo_char_matrix(g, [0.5]), "A"),
    "explain_at_least_k.R": (lambda g: explain_at_least_k(g, [0.5], 1), "R"),
}
BAD_GRIDS = {
    "nan": ([[np.nan]], "must be finite and lie in"),
    "1.5": ([[1.5]], "must be finite and lie in"),
    "3-d": (np.full((2, 1, 1), 0.5), "must be a 2-d grid"),
    "empty": (np.zeros((0, 1)), "must be a 2-d grid"),
}


@pytest.mark.parametrize("bad", sorted(BAD_GRIDS))
@pytest.mark.parametrize("entry", sorted(GRIDS))
def test_grid_arguments_are_checked(entry, bad):
    call, name = GRIDS[entry]
    grid, message = BAD_GRIDS[bad]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} {message}"):
        call(grid)


# entry point: (the call with one vector argument v, that argument's name, the
# length it must have, or None where nothing fixes it)
VECTORS = {
    "FreProblem.b": (lambda v: FreProblem(A12, v), "b", 2),
    "FreProblem.lhs": (lambda v: P.lhs(v), "x", 2),
    "SolutionSet.contains": (lambda v: solve(P).contains(v), "x", 2),
    "binding_sets": (lambda v: binding_sets(P, v), "x_hat", 2),
    "gavalec_certificate.b": (lambda v: gavalec_certificate(P.A, v), "b", 2),
    "subsethood.A": (lambda v: subsethood(MIN, v, HALVES), "A", None),
    "subsethood.B": (lambda v: subsethood(MIN, HALVES, v), "B", 2),
    "equality_error.F": (lambda v: equality_error(v, HALVES), "F", None),
    "equality_error.B": (lambda v: equality_error(HALVES, v), "B", 2),
    "mamdani_control.x_input": (lambda v: mamdani_control([(HALVES, [0.5])], v), "x_input",
                                None),
    "mamdani_control.antecedent": (lambda v: mamdani_control([(v, [0.5])], HALVES),
                                   "antecedent", 2),
    "mamdani_control.consequent": (lambda v: mamdani_control(
        [(HALVES, HALVES), (HALVES, v)], HALVES), "consequent", 2),
    "pseudo_char_matrix.b": (lambda v: pseudo_char_matrix(A12, v), "b", 2),
    "explain_at_least_k.Mplus": (lambda v: explain_at_least_k(A12, v, 1), "Mplus", 2),
    "defuzzify_cog.U": (lambda v: defuzzify_cog([0.0, 1.0], v), "U", 2),
    "kagei_type1.pattern": (lambda v: kagei_type1([(v, 0)], 2), "pattern", 2),
    "kagei_type1.caps": (lambda v: kagei_type1([(HALVES, 0)], 2, v), "caps", 2),
    "kagei_type2_unique.patterns": (lambda v: kagei_type2_unique([(HALVES, 0), (v, 1)], 2, 2),
                                    "patterns", 2),
    "sre_solvability_criteria.premises": (lambda v: sre_solvability_criteria(
        [HALVES, v], "sup-t"), "premises", 2),
    "PartitionedSeries.q": (lambda v: PartitionedSeries((1, 2), v, HALVES, [(0,)]), "q", None),
    "PartitionedSeries.r": (lambda v: PartitionedSeries((1, 2), HALVES, v, [(0,)]), "r", 2),
    "specificity_shift_fit.x": (lambda v: specificity_shift_fit(
        [(HALVES, [0.5]), (v, [0.5])], MIN, [], []), "x", 2),
    "specificity_shift_fit.y": (lambda v: specificity_shift_fit(
        [([0.5], HALVES), ([0.5], v)], MIN, [], []), "y", 2),
}


@pytest.mark.parametrize("entry, bad", [
    (entry, bad) for entry in sorted(VECTORS)
    for bad in ("nan", "1.5", "length")[:3 if VECTORS[entry][2] else 2]])
def test_vector_arguments_are_checked(entry, bad):
    call, name, size = VECTORS[entry]
    if bad == "length":
        # one entry short: kagei_type1 reads a longer pattern up to its size
        vec, message = [0.5] * (size - 1), "(has 1 entries for 2 |is a ragged grid)"
    else:
        vec, message = [float(bad), 0.5], "must be finite and lie in"
    with pytest.raises(ValueError, match=f"^{re.escape(name)} {message}"):
        call(vec)


def test_a_row_or_a_column_reads_as_a_vector():
    for b in ([[0.5, 0.3]], [[0.5], [0.3]], np.array([0.5, 0.3])):
        assert FreProblem(P.A, b).b.tolist() == [0.5, 0.3]
        assert P.lhs(b).tolist() == [0.5, 0.3]


@pytest.mark.parametrize("call, message", [
    (lambda: irreflexivity_condition([[0.5]], [[0.0, 0.9], [0.3, 0.2]]),
     r"^shape mismatch: \(1, 1\) vs \(2, 2\)$"),
    (lambda: kagei_type2_unique([([0.5], 0)], 2, 2), "^patterns have 1 entries for 2 inputs$"),
    (lambda: kagei_type2_unique([(HALVES, 0), (HALVES, 4)], 2, 2),
     "^selected output 4 out of range for 2 outputs$"),
    (lambda: PartitionedSeries((1, 2), HALVES, HALVES, [(0,), (1, 5)]),
     r"^block 1 \(1, 5\) has an index outside the series of 2 points$"),
    # the internal kernels, below and above one block: a middle axis of 1
    # must not broadcast, nor the sorted kernel read only some rows of Q
    (lambda: sup_t_compose(MIN, np.array([[0.5], [0.3]]), np.full((3, 2), 0.5)),
     r"^dimension mismatch: \(2, 1\) cannot compose with \(3, 2\)$"),
    (lambda: inf_implication_compose(godel, np.array([[0.5], [0.3]]), np.full((3, 2), 0.5)),
     r"^dimension mismatch: \(2, 1\) cannot compose with \(3, 2\)$"),
    (lambda: sup_t_compose(MIN, np.full((64, 64), 0.5), np.full((65, 64), 0.5)),
     r"^dimension mismatch: \(64, 64\) cannot compose with \(65, 64\)$"),
    (lambda: inf_implication_compose(godel, np.full((64, 64), 0.5), np.full((65, 64), 0.5)),
     r"^dimension mismatch: \(64, 64\) cannot compose with \(65, 64\)$"),
], ids=["irreflexivity-shapes", "kagei2-short-patterns", "kagei2-output", "series-block",
        "sup-t-kernel-middle-1", "inf-kernel-middle-1", "sup-t-kernel-sorted",
        "inf-kernel-blocks"])
def test_shapes_and_indices_are_checked(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("cap", [0, -3, 2.5, True])
def test_an_explicit_cap_must_be_a_positive_integer(cap):
    with pytest.raises(ValueError, match=f"^cap must be a positive integer, got {cap!r}$"):
        solve(P, "pattern", cap=cap)
    # P's search has two leaves, both minimal
    assert len(solve(P, "pattern", cap=2).minimals) == 2


@pytest.mark.parametrize("call, message", [
    (lambda: GaConfig(population_size=0), "population_size must be an integer of at least 1"),
    (lambda: GaConfig(population_size=2.0), "population_size must be an integer"),
    (lambda: GaConfig(generations=-1), "generations must be an integer of at least 0"),
    (lambda: fuzzy_c_means([[0.0], [1.0]], 0), "C must lie between 1 and the number of points"),
    (lambda: fuzzy_c_means([[0.0], [1.0]], 3), "C must lie between 1 and the number of points"),
    (lambda: fuzzy_c_means([[0.0], [np.nan]], 1), "points must be a 2-d array of finite"),
    (lambda: fuzzy_c_means([0.0, 1.0], 1), "points must be a 2-d array of finite"),
    (lambda: fuzzy_c_means([[0.0], [1.0]], True), "C must lie between 1 and the number of points"),
    (lambda: fuzzy_c_means([[0.0], [1.0]], 2.0), "C must lie between 1 and the number of points"),
    (lambda: fuzzy_c_means([[0.0], [1.0]], 1, m=np.nan), "^m must be finite and above 1, got nan"),
    (lambda: fuzzy_c_means([[0.0], [1.0]], 1, m=np.inf), "^m must be finite and above 1, got inf"),
    (lambda: fuzzy_c_means([[0.0], [1.0]], 1, tol=np.nan), "^tol must be finite and non-negative"),
    (lambda: fuzzy_c_means([[0.0], [1.0]], 1, max_iter=0), "^max_iter must be an integer of at"),
    (lambda: TrainerConfig(epsilon=-1.0), "epsilon must be finite and non-negative"),
    (lambda: TrainerConfig(epsilon=np.nan), "epsilon must be finite and non-negative"),
    (lambda: TrainerConfig(max_epochs=0), "^max_epochs must be an integer of at least 1, got 0"),
    (lambda: TrainerConfig(max_epochs=-3), "^max_epochs must be an integer of at least 1"),
    (lambda: TrainerConfig(max_epochs=2.5), "^max_epochs must be an integer of at least 1"),
    (lambda: TrainerConfig(max_epochs=True), "^max_epochs must be an integer of at least 1"),
    (lambda: kagei_type2_unique([(HALVES, 0)], 2, 2, max_sweeps=-1),
     "^max_sweeps must be an integer of at least 1, got -1"),
    (lambda: kagei_type2_unique([(HALVES, 0)], 2, 2, slack=-1.0),
     "^slack must be finite and non-negative, got -1.0"),
    (lambda: kagei_type2_unique([(HALVES, 0)], 2, 2, slack=np.nan),
     "^slack must be finite and non-negative, got nan"),
    (lambda: explain_at_least_k(A12, HALVES, -1), "^k must be an integer of at least 0, got -1"),
    (lambda: explain_at_least_k(A12, HALVES, 1.5), "^k must be an integer of at least 0, got 1.5"),
    (lambda: explain_at_least_k(A12, HALVES, True), "^k must be an integer of at least 0"),
    (lambda: explain_at_least_k(A12, HALVES, 3), "^k exceeds the number of manifestations"),
    (lambda: alpha_cut([[0.5]], np.nan), "^alpha must be finite and lie in \\[0, 1\\], got nan"),
    (lambda: alpha_cut([[0.5]], np.inf), "^alpha must be finite and lie in \\[0, 1\\], got inf"),
    (lambda: alpha_cut([[0.5]], -1), "^alpha must be finite and lie in \\[0, 1\\], got -1"),
    (lambda: relation_properties([[0.5]], eps=np.nan), "^eps must be finite and lie in"),
    (lambda: relation_properties([[0.5]], eps=1.5), "^eps must be finite and lie in"),
], ids=["ga-population-0", "ga-population-float", "ga-generations-negative", "fcm-C-0",
        "fcm-C-above-points", "fcm-nan-point", "fcm-1-d-points", "fcm-C-bool", "fcm-C-float",
        "fcm-m-nan", "fcm-m-inf", "fcm-tol-nan", "fcm-max-iter-0", "trainer-epsilon-negative",
        "trainer-epsilon-nan", "trainer-max-epochs-0", "trainer-max-epochs-negative",
        "trainer-max-epochs-float", "trainer-max-epochs-bool", "kagei2-max-sweeps-negative",
        "kagei2-slack-negative", "kagei2-slack-nan", "at-least-k-negative", "at-least-k-float",
        "at-least-k-bool", "at-least-k-above-manifestations", "alpha-cut-nan", "alpha-cut-inf", "alpha-cut-negative",
        "properties-eps-nan", "properties-eps-above-1"])
def test_algorithm_parameters_are_checked_where_they_enter(call, message):
    with pytest.raises(ValueError, match=message):
        call()
