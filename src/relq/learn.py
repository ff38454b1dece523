"""Learners recovering the greatest solution W of A ∘ W = B from samples.

Online weight-decrease rules for max-min and general sup-t systems, their
closed-form counterparts, and a smooth-derivative gradient variant.
Inputs are p×n (rows a_i), targets p×m (rows b_i), W is n×m.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grades import MIN, REPAIR_TOL, STOP_TOL, TOL, TNorm, check_grades, godel
from .relations import inf_implication_compose, sup_t_compose


@dataclass(frozen=True)
class TrainingSet:
    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        inputs = np.atleast_2d(np.asarray(self.inputs, float))
        targets = np.atleast_2d(np.asarray(self.targets, float))
        if inputs.shape[0] != targets.shape[0]:
            raise ValueError("inputs and targets must have the same number of rows")
        object.__setattr__(self, "inputs", check_grades(inputs, "inputs"))
        object.__setattr__(self, "targets", check_grades(targets, "targets"))

    @property
    def p(self):
        return self.inputs.shape[0]

    @property
    def n(self):
        return self.inputs.shape[1]

    @property
    def m(self):
        return self.targets.shape[1]


@dataclass
class TrainerConfig:
    eta: float = 0.1
    epsilon: float = STOP_TOL
    max_epochs: int = 10_000
    tnorm: TNorm = field(default_factory=lambda: MIN)

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")


@dataclass
class TrainResult:
    W: np.ndarray
    converged: bool
    epochs: int
    error_trace: list

    @property
    def error(self):
        return self.error_trace[-1] if self.error_trace else None


def sup_t_image(t: TNorm, A, W):
    """Row images A ∘ W under sup-t."""
    return sup_t_compose(t, np.atleast_2d(np.asarray(A, float)), np.asarray(W, float))


def training_error(t: TNorm, ts: TrainingSet, W):
    return float(np.max(np.abs(sup_t_image(t, ts.inputs, W) - ts.targets)))


# ---------------------------------------------------------------------------
# Online weight-decrease rules
# ---------------------------------------------------------------------------

def _delta_rule(ts: TrainingSet, cfg: TrainerConfig, t: TNorm):
    W = np.ones((ts.n, ts.m))
    trace = []
    converged = False
    epoch = 0
    for epoch in range(1, cfg.max_epochs + 1):
        epoch_changed = False
        for a, b in zip(ts.inputs, ts.targets):
            for _ in range(cfg.max_epochs):
                delta = sup_t_image(t, a, W)[0] - b
                fire = (delta > cfg.epsilon) & (t.apply(W, a[:, None]) > b + TOL)
                if not fire.any():
                    break
                W[fire] = np.maximum(0.0, W - cfg.eta * delta)[fire]
                epoch_changed = True
        trace.append(training_error(t, ts, W))
        if trace[-1] <= cfg.epsilon or not epoch_changed:
            converged = trace[-1] <= cfg.epsilon or _solvable_limit(t, ts, W, cfg.epsilon)
            break
    return TrainResult(W, converged, epoch, trace)


def _solvable_limit(t, ts, W, eps):
    """Stable with no updates firing: outputs can only undershoot targets."""
    img = sup_t_image(t, ts.inputs, W)
    return bool(np.all(img <= ts.targets + eps))


def delta_rule_basic(ts: TrainingSet, cfg: TrainerConfig | None = None) -> TrainResult:
    """Max-min online rule: decrease every weight whose min with the input
    exceeds the target, by eta times the output error."""
    cfg = cfg or TrainerConfig()
    if cfg.tnorm.name != "min":
        raise ValueError("the basic rule is defined for the min t-norm")
    return _delta_rule(ts, cfg, MIN)


def delta_rule_J(ts: TrainingSet, cfg: TrainerConfig) -> TrainResult:
    """Same scheme with an arbitrary continuous t-norm."""
    if not cfg.tnorm.continuous:
        raise ValueError("rule J needs a continuous t-norm")
    return _delta_rule(ts, cfg, cfg.tnorm)


# ---------------------------------------------------------------------------
# Closed-form rules
# ---------------------------------------------------------------------------

def delta_rule_B(ts: TrainingSet) -> TrainResult:
    """One sweep per sample: w_kj = min of the targets b_ij over samples
    with a_ik > b_ij (empty set gives 1).  Order-free."""
    W = inf_implication_compose(godel, ts.inputs.T, ts.targets)
    err = training_error(MIN, ts, W)
    return TrainResult(W, err <= TOL, ts.p, [err])


@dataclass
class RuleKResult(TrainResult):
    fallback_cells: list = field(default_factory=list)


def delta_rule_K(ts: TrainingSet, t: TNorm) -> RuleKResult:
    """One pass per sample: a violating weight snaps to the largest w with
    t(w, a_ik) = b_ij.  Converges to the greatest solution when solvable."""
    if not t.continuous:
        raise ValueError("rule K needs a continuous t-norm")
    W = np.ones((ts.n, ts.m))
    fallback = []
    for i in range(ts.p):
        a = ts.inputs[i][:, None]
        b = ts.targets[i]
        cand = t.apply_residuum(a, b)
        unrepaired = (t.apply(W, a) > b + TOL) & (np.abs(t.apply(cand, a) - b) > REPAIR_TOL)
        fallback += [(i, int(k), int(j)) for k, j in np.argwhere(unrepaired)]
        # clamp on the residuum itself rather than on the violation test so
        # the final weight is bit-for-bit the minimum of the per-sample
        # residua (the greatest solution)
        W = np.minimum(W, cand)
    err = training_error(t, ts, W)
    return RuleKResult(W, err <= REPAIR_TOL, ts.p, [err], fallback)


# ---------------------------------------------------------------------------
# Smooth-derivative gradient trainer (max-min network)
# ---------------------------------------------------------------------------

def smooth_derivative_train(ts: TrainingSet, cfg: TrainerConfig | None = None) -> TrainResult:
    """Gradient descent on E = 1/2 Σ (T_j − O_j)² for O_j = max_k min(x_k, w_kj),
    using a smoothed case-split derivative so plateaus still move."""
    cfg = cfg or TrainerConfig()
    if cfg.tnorm.name != "min":
        raise ValueError("the smooth-derivative trainer is defined for max-min")
    W = np.ones((ts.n, ts.m))
    trace = []
    converged = False
    epoch = 0
    for epoch in range(1, cfg.max_epochs + 1):
        for x, targ in zip(ts.inputs, ts.targets):
            x = x[:, None]
            vals = np.minimum(x, W)
            delta = targ - vals.max(axis=0)
            # max2[s, j]: the largest of vals[k, j] over the other rows k != s
            top = np.sort(vals, axis=0)
            second = top[-2] if ts.n > 1 else 0.0
            max2 = np.where(vals == top[-1], second, top[-1])
            C = np.where(x < W, np.where(x >= max2, x, x * x), np.where(W >= max2, 1.0, W))
            step = np.minimum(1.0, np.maximum(0.0, W + cfg.eta * delta * C))
            W = np.where(np.abs(delta) > cfg.epsilon, step, W)
        trace.append(training_error(MIN, ts, W))
        if trace[-1] <= cfg.epsilon:
            converged = True
            break
    return TrainResult(W, converged, epoch, trace)


# ---------------------------------------------------------------------------
# Error measures
# ---------------------------------------------------------------------------

def equality_error(F, B):
    """Hamming distance Σ |F_i − B_i| (sum of equality-index complements)."""
    F = np.asarray(F, float).ravel()
    B = np.asarray(B, float).ravel()
    if F.shape != B.shape:
        raise ValueError("length mismatch")
    return float(np.sum(np.abs(F - B)))
