import itertools

import numpy as np
import pytest

from relq.grades import MIN, PRODUCT, LUKASIEWICZ, DRASTIC
from relq.learn import (TrainerConfig, TrainingSet, delta_rule_B,
                        delta_rule_J, delta_rule_K, delta_rule_basic,
                        equality_error, smooth_derivative_train, sup_t_image,
                        training_error)
from relq.relations import MaxMin, SupT
from relq.solve import FreProblem, max_solution


def solvable_set(rng, p, n, m, t=MIN, decimals=2):
    """Training data generated from a hidden relation, hence solvable."""
    W0 = np.round(rng.random((n, m)), decimals)
    A = np.round(rng.random((p, n)), decimals)
    B = sup_t_image(t, A, W0)
    return TrainingSet(A, B)


def test_training_set_validation():
    with pytest.raises(ValueError):
        TrainingSet(np.zeros((2, 3)), np.zeros((3, 2)))
    ts = TrainingSet([[0.1, 0.2]], [[0.3]])
    assert (ts.p, ts.n, ts.m) == (1, 2, 1)


@pytest.mark.parametrize("inputs, targets, which", [
    ([[np.nan, 0.2]], [[0.3]], "inputs"),
    ([[0.1, 1.2]], [[0.3]], "inputs"),
    ([[0.1, 0.2]], [[np.inf]], "targets"),
    ([[0.1, 0.2]], [[-0.3]], "targets"),
])
def test_training_set_rejects_bad_grades(inputs, targets, which):
    with pytest.raises(ValueError, match=f"{which} must be finite and lie in"):
        TrainingSet(inputs, targets)


def test_trainer_config_validation():
    with pytest.raises(ValueError):
        TrainerConfig(eta=0.0)


def test_delta_rule_basic_solves_solvable():
    # the online rule can overshoot below the greatest solution by at most
    # one eta-scaled step, so the residual error shrinks with eta
    rng = np.random.default_rng(0)
    for _ in range(10):
        ts = solvable_set(rng, 4, 3, 2)
        res = delta_rule_basic(ts, TrainerConfig(eta=0.02))
        assert res.converged
        assert training_error(MIN, ts, res.W) <= 0.03


def test_delta_rule_basic_rejects_non_min():
    ts = TrainingSet([[0.5]], [[0.3]])
    with pytest.raises(ValueError):
        delta_rule_basic(ts, TrainerConfig(tnorm=PRODUCT))


def test_delta_rule_J_product():
    rng = np.random.default_rng(1)
    ts = solvable_set(rng, 4, 3, 2, t=PRODUCT)
    res = delta_rule_J(ts, TrainerConfig(eta=0.02, tnorm=PRODUCT))
    assert res.converged
    assert training_error(PRODUCT, ts, res.W) <= 0.03


def test_delta_rule_J_rejects_discontinuous():
    ts = TrainingSet([[0.5]], [[0.3]])
    with pytest.raises(ValueError):
        delta_rule_J(ts, TrainerConfig(tnorm=DRASTIC))


def test_rule_B_closed_form_and_order_invariance():
    rng = np.random.default_rng(2)
    ts = solvable_set(rng, 5, 3, 2)
    res = delta_rule_B(ts)
    assert res.converged
    # closed form: w_kj = min over samples with a_ik > b_ij of b_ij
    for k in range(ts.n):
        for j in range(ts.m):
            vals = [ts.targets[i, j] for i in range(ts.p)
                    if ts.inputs[i, k] > ts.targets[i, j] + 1e-9]
            expect = min(vals) if vals else 1.0
            assert res.W[k, j] == pytest.approx(expect)
    # order invariance
    perm = rng.permutation(ts.p)
    res2 = delta_rule_B(TrainingSet(ts.inputs[perm], ts.targets[perm]))
    assert np.allclose(res.W, res2.W)


@pytest.mark.parametrize("t", [MIN, PRODUCT])
def test_rule_K_equals_transposed_greatest_solution(t):
    rng = np.random.default_rng(3)
    for _ in range(20):
        p_, n_, m_ = rng.integers(1, 5), rng.integers(1, 5), rng.integers(1, 5)
        ts = solvable_set(rng, p_, n_, m_, t=t)
        res = delta_rule_K(ts, t)
        assert res.converged
        comp = MaxMin() if t is MIN else SupT(t)
        for j in range(ts.m):
            prob = FreProblem(ts.inputs.T, ts.targets[:, j], comp)
            x_hat = max_solution(prob)
            assert x_hat is not None
            assert np.allclose(res.W[:, j], x_hat)


def test_rule_K_requires_continuity():
    ts = TrainingSet([[0.5]], [[0.3]])
    with pytest.raises(ValueError):
        delta_rule_K(ts, DRASTIC)


def test_smooth_derivative_trainer():
    rng = np.random.default_rng(4)
    ts = solvable_set(rng, 3, 2, 2)
    res = smooth_derivative_train(ts, TrainerConfig(eta=0.5, epsilon=1e-3,
                                                    max_epochs=5000))
    assert training_error(MIN, ts, res.W) <= 0.05
    assert np.all(res.W >= 0.0) and np.all(res.W <= 1.0)


def test_error_trace_monotone_for_basic_rule():
    rng = np.random.default_rng(5)
    ts = solvable_set(rng, 4, 3, 3)
    res = delta_rule_basic(ts, TrainerConfig(eta=0.3))
    assert res.error_trace == sorted(res.error_trace, reverse=True)


def test_equality_error():
    assert equality_error([0.2, 0.5], [0.2, 0.5]) == 0.0
    assert equality_error([0.0, 1.0], [1.0, 0.0]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        equality_error([0.1], [0.1, 0.2])


def test_unsolvable_converges_to_undershooting_limit():
    # targets exceed anything the inputs can produce under min
    ts = TrainingSet([[0.3, 0.2]], [[0.9]])
    res = delta_rule_basic(ts, TrainerConfig(eta=0.5))
    img = sup_t_image(MIN, ts.inputs, res.W)
    assert np.all(img <= ts.targets + 1e-9)


def test_sup_t_image_checks_its_inputs():
    with pytest.raises(ValueError, match=r"dimension mismatch: \(1, 1\) cannot compose"):
        sup_t_image(MIN, [[0.5]], [[0.5, 0.2], [0.3, 0.1]])
    for bad in (2.0, np.nan):
        with pytest.raises(ValueError, match="must be finite and lie in"):
            sup_t_image(MIN, [[bad]], [[0.5]])
        with pytest.raises(ValueError, match="must be finite and lie in"):
            sup_t_image(MIN, [[0.5]], [[bad]])
    # a 1-d input is one row
    assert sup_t_image(MIN, [0.5, 0.3], [[0.4], [0.9]]).tolist() == [[0.4]]
