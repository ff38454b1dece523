"""Learners recovering the greatest solution W of A ∘ W = B from samples.

Online weight-decrease rules for max-min and general sup-t systems, their
closed form W_kj = min_i w_t(a_ik, b_ij) (Sanchez's greatest solution, w_t
the residuum of t), and a smooth-derivative gradient variant.
Inputs are p×n (rows a_i), targets p×m (rows b_i), W is n×m.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grades import MIN, REPAIR_TOL, STOP_TOL, TOL, TNorm, as_grades, check_integer
from .relations import SupT, as_grid, compose, inf_implication_compose, sup_t_compose


@dataclass(frozen=True)
class TrainingSet:
    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "inputs", as_grid(self.inputs, "inputs"))
        object.__setattr__(self, "targets", as_grid(self.targets, "targets"))
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError("inputs and targets must have the same number of rows")

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
        if not 0.0 <= self.epsilon < np.inf:
            raise ValueError(f"epsilon must be finite and non-negative, got {self.epsilon!r}")
        check_integer("max_epochs", self.max_epochs, 1)


@dataclass
class TrainResult:
    W: np.ndarray
    converged: bool
    epochs: int
    error_trace: list


def sup_t_image(t: TNorm, A, W):
    """Row images A ∘ W under sup-t, checked as ``compose`` checks them."""
    return np.array(compose(SupT(t), A, W).cells)


def training_error(t: TNorm, ts: TrainingSet, W):
    return float(np.max(np.abs(sup_t_compose(t, ts.inputs, W) - ts.targets)))


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
                delta = sup_t_compose(t, a[None, :], W)[0] - b
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
    img = sup_t_compose(t, ts.inputs, W)
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

def _greatest_solution(ts: TrainingSet, t: TNorm):
    """W_kj = min_i w_t(a_ik, b_ij) over the samples, and its training error."""
    W = inf_implication_compose(t.apply_residuum, ts.inputs.T, ts.targets)
    return W, training_error(t, ts, W)


def delta_rule_B(ts: TrainingSet) -> TrainResult:
    """Max-min closed form: w_kj = min of the targets b_ij over samples with
    a_ik > b_ij (empty set gives 1).  Order-free."""
    W, err = _greatest_solution(ts, MIN)
    return TrainResult(W, err <= TOL, ts.p, [err])


def delta_rule_K(ts: TrainingSet, t: TNorm) -> TrainResult:
    """Per sample, a violating weight snaps to the largest w with
    t(w, a_ik) = b_ij: in closed form W_kj = min_i w_t(a_ik, b_ij), since a
    violation t(W, a) > b needs a > b, and then t(w_t(a, b), a) = min(a, b)
    = b for a continuous t.  The greatest solution when solvable."""
    if not t.continuous:
        raise ValueError("rule K needs a continuous t-norm")
    W, err = _greatest_solution(ts, t)
    return TrainResult(W, err <= REPAIR_TOL, ts.p, [err])


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
    F = as_grades(F, name="F")
    B = as_grades(B, F.size, "B", "grades of F")
    return float(np.sum(np.abs(F - B)))
