"""Truth-value algebra on the unit interval, in scalar and array form.

t-norms (with residua and Archimedean generators), implication operators,
the residuation-style solution operators used to build greatest solutions
of relational equations, scalar equation solving, equality indices and the
distinguishability metric Q_t.  A t-norm's ``__call__``/``residuum`` take
grades and ``apply``/``apply_residuum`` take arrays: exact numpy forms for
the built-ins, the scalar method cell by cell in the base class (for
generators with a scalar-only ``f``).  The implications take either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TOL = 1e-9
# Objective values (a cost c·x, a fitness, an objective vector) compare with
# this slack: far below TOL, so it only keeps summation rounding from
# splitting a tie, and never lets a worse point count as better.
OBJECTIVE_SLACK = 1e-12
# A Pareto archive treats two objective vectors as one point when every
# component lies within CLOSE_ATOL + CLOSE_RTOL·|z| of the new point z
# (np.isclose's default band): objectives evaluated at solutions that differ
# only by TOL-sized repair noise then do not crowd the archive.
CLOSE_ATOL = 1e-8
CLOSE_RTOL = 1e-5
# Fuzzy c-means gives a point all its membership once its squared distance
# to a centre is at most this (a distance of TOL): the membership weights
# divide by that distance, which is 0 for a point on a centre.
ZERO_DIST2 = 1e-18


def _check_unit(x, name="value"):
    if not (-TOL <= x <= 1 + TOL):
        raise ValueError(f"{name} {x!r} outside [0, 1]")
    return min(1.0, max(0.0, float(x)))


def check_grades(values, name="grades"):
    """Raise ValueError unless every cell is a finite grade in [0, 1] (within
    TOL); NaN and ±inf fail the range test."""
    ok = (values >= -TOL) & (values <= 1 + TOL)
    if not np.all(ok):
        bad = float(np.asarray(values)[~ok].flat[0])
        raise ValueError(f"{name} must be finite and lie in [0, 1], got {bad!r}")


def _bisect(low):
    """60 halvings of [0, 1] toward the point where the monotone predicate
    low(x) stops holding; returns the final (lo, hi) bracket."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if low(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _out(r):
    """A plain float for scalar arguments, the array otherwise."""
    return float(r) if np.ndim(r) == 0 else r


# ---------------------------------------------------------------------------
# t-norms
# ---------------------------------------------------------------------------

class TNorm:
    """Base class: a commutative, associative, monotone op with unit 1."""

    name = "abstract"
    continuous = True
    archimedean = False

    def __call__(self, a, b):
        raise NotImplementedError

    def apply(self, a, b):
        """Array form of __call__: t in every broadcast cell of a and b."""
        return np.asarray(np.frompyfunc(self.__call__, 2, 1)(a, b), dtype=float)

    def apply_residuum(self, a, b):
        """Array form of residuum."""
        return np.asarray(np.frompyfunc(self.residuum, 2, 1)(a, b), dtype=float)

    def residuum(self, a, b):
        """sup{x : t(a, x) <= b}, by bisection unless overridden."""
        if self(a, 1.0) <= b + TOL:
            return 1.0
        return _bisect(lambda x: self(a, x) <= b + 1e-15)[0]

    def min_section_solution(self, a, b):
        """Smallest x with t(a, x) >= b (requires a continuous section, a >= b)."""
        if b <= 0.0:
            return 0.0
        return _bisect(lambda x: not self(a, x) >= b - 1e-15)[1]

    def __repr__(self):
        return f"<tnorm {self.name}>"


class MinTNorm(TNorm):
    name = "min"

    def __call__(self, a, b):
        return a if a < b else b

    def apply(self, a, b):
        return np.minimum(a, b)

    def residuum(self, a, b):
        return godel(a, b)

    apply_residuum = residuum

    def min_section_solution(self, a, b):
        return b


class ProductTNorm(TNorm):
    name = "product"
    archimedean = True

    def __call__(self, a, b):
        return a * b

    apply = __call__

    def residuum(self, a, b):
        below = a <= b + TOL  # divides only where a > b >= 0, never by 0
        return _out(np.where(below, 1.0, b / np.where(below, 1.0, a)))

    apply_residuum = residuum

    def min_section_solution(self, a, b):
        if b <= 0.0:
            return 0.0
        return min(1.0, b / a) if a > 0 else 1.0


class LukasiewiczTNorm(TNorm):
    name = "lukasiewicz"
    archimedean = True

    def __call__(self, a, b):
        return max(0.0, a + b - 1.0)

    def apply(self, a, b):
        return np.maximum(0.0, a + b - 1.0)

    def residuum(self, a, b):
        return lukasiewicz_implication(a, b)

    apply_residuum = residuum

    def min_section_solution(self, a, b):
        if b <= 0.0:
            return 0.0
        return min(1.0, 1.0 - a + b)


class DrasticTNorm(TNorm):
    """t(a,b) = min(a,b) when max(a,b)=1, else 0.  Not continuous."""

    name = "drastic"
    continuous = False

    def __call__(self, a, b):
        if a >= 1.0 - 1e-15:
            return b
        if b >= 1.0 - 1e-15:
            return a
        return 0.0

    def apply(self, a, b):
        return np.where(a >= 1.0 - 1e-15, b, np.where(b >= 1.0 - 1e-15, a, 0.0))

    def residuum(self, a, b):
        # For a < 1 every x < 1 satisfies t(a,x)=0 <= b, so the sup is 1.
        return _out(np.where((a >= 1.0 - 1e-15) & (a > b + TOL), b, 1.0))

    apply_residuum = residuum


class GeneratorTNorm(TNorm):
    """Archimedean t-norm from a decreasing generator f with f(1)=0.

    t(a,b) = f^(-1)(f(a) + f(b)) where f^(-1) is the pseudo-inverse
    (clamps arguments above f(0) to 0).
    """

    name = "generator"
    archimedean = True

    def __init__(self, f, f_inv=None, f_zero=None, name=None):
        self.f = f
        if name:
            self.name = name
        if f_zero is None:
            try:
                f_zero = f(0.0)
            except (ValueError, ZeroDivisionError, OverflowError):
                f_zero = math.inf
        self.f_zero = f_zero
        self._f_inv = f_inv

    def pseudo_inverse(self, y):
        if y <= 0.0:
            return 1.0
        if y >= self.f_zero:
            return 0.0
        if self._f_inv is not None:
            return min(1.0, max(0.0, self._f_inv(y)))
        return _bisect(lambda x: self.f(x) > y)[1]  # f decreasing, f(1) = 0 <= y

    def __call__(self, a, b):
        fa = self.f(a) if a > 0.0 else self.f_zero
        fb = self.f(b) if b > 0.0 else self.f_zero
        return self.pseudo_inverse(fa + fb)


MIN = MinTNorm()
PRODUCT = ProductTNorm()
LUKASIEWICZ = LukasiewiczTNorm()
DRASTIC = DrasticTNorm()

_TNORMS = {
    "min": MIN,
    "product": PRODUCT,
    "lukasiewicz": LUKASIEWICZ,
    "drastic": DRASTIC,
}


def tnorm_by_name(name):
    try:
        return _TNORMS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown t-norm {name!r}; choose from {sorted(_TNORMS)}"
        ) from None


# ---------------------------------------------------------------------------
# Implications
# ---------------------------------------------------------------------------

def godel(a, b):
    """Goedel implication: 1 if a <= b else b.  It is also the residuum of
    min and the greatest-solution operator of max-min systems."""
    return _out(np.where(a <= b + TOL, 1.0, b))


sigma_alpha = godel


def lukasiewicz_implication(a, b):
    return _out(np.minimum(1.0, 1.0 - a + b))


def kleene_dienes(a, b):
    return _out(np.maximum(1.0 - a, b))


def crisp_material(a, b):
    """Material implication on {0, 1} only."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    for v in (a, b):
        off = (np.abs(v) > TOL) & (np.abs(v - 1.0) > TOL)
        if np.any(off):
            raise ValueError("crisp material implication needs binary input, "
                             f"got {float(v[off].flat[0])!r}")
    return _out(np.where((a > 0.5) & (b < 0.5), 0.0, 1.0))


class Residuum:
    """The adjoint implication of a t-norm: w_t(a,b) = sup{x : t(a,x) <= b}."""

    def __init__(self, t: TNorm):
        self.t = t

    def __call__(self, a, b):
        return _out(self.t.apply_residuum(a, b))

    def __repr__(self):
        return f"<residuum of {self.t.name}>"


_IMPLICATIONS = {
    "godel": godel,
    "lukasiewicz": lukasiewicz_implication,
    "kleene-dienes": kleene_dienes,
    "crisp": crisp_material,
}


def implication_by_name(name, tnorm=None):
    name = name.lower()
    if name == "residuum":
        if tnorm is None:
            raise ValueError("residuum implication needs a t-norm")
        return Residuum(tnorm)
    try:
        return _IMPLICATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown implication {name!r}; choose from {sorted(_IMPLICATIONS)} or 'residuum'"
        ) from None


# ---------------------------------------------------------------------------
# Solution operators
# ---------------------------------------------------------------------------

def at_op(composition, a, b):
    """Greatest x with comp(x, a) <= b, for max-min / max-product: the
    residuum of min or product."""
    t = {"max-min": MIN, "max-product": PRODUCT}.get(composition)
    if t is None:
        raise ValueError(f"at_op supports max-min/max-product, got {composition!r}")
    return t.residuum(a, b)


# ---------------------------------------------------------------------------
# Scalar equation t(a, x) = b
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoSolution:
    pass


@dataclass(frozen=True)
class Unique:
    value: float


@dataclass(frozen=True)
class Interval:
    max_so: float
    min_so: float


def solve_scalar_t(t: TNorm, a, b):
    """Solve t(a, x) = b for x.

    Returns NoSolution when a < b; Interval(max, min) when the solution set
    is an interval (always for min; for b = 0 on Archimedean norms);
    Unique(x) for Archimedean norms with b > 0.
    """
    if not t.continuous:
        raise ValueError(f"solve_scalar_t requires a continuous t-norm, got {t.name}")
    a = _check_unit(a, "a")
    b = _check_unit(b, "b")
    if a < b - TOL:
        return NoSolution()
    if isinstance(t, MinTNorm):
        if a <= b + TOL:           # a == b: every x >= b solves min(a,x)=b
            return Interval(max_so=1.0, min_so=b)
        return Interval(max_so=b, min_so=b)
    max_so = t.residuum(a, b)      # continuity: t(a, max_so) = b when a >= b
    min_so = t.min_section_solution(a, b)
    if abs(max_so - min_so) <= TOL:
        return Unique(max_so)
    return Interval(max_so=max_so, min_so=min_so)


# ---------------------------------------------------------------------------
# Equality index and distinguishability metric
# ---------------------------------------------------------------------------

def equality_index(f, b):
    """Degree to which two grades are equal: 1 - |f - b|."""
    f = _check_unit(f, "f")
    b = _check_unit(b, "b")
    return 1.0 - abs(f - b)


def subsethood(t: TNorm, A, B):
    """inf_x w_t(A(x), B(x)) — graded inclusion of A in B."""
    if len(A) != len(B):
        raise ValueError(f"length mismatch: {len(A)} vs {len(B)}")
    A, B = np.asarray(A, float), np.asarray(B, float)
    return float(np.min(t.apply_residuum(A, B), initial=1.0))


def q_metric(t: TNorm, A, B):
    """Distinguishability Q_t(A,B) = 1 - t([A in B], [B in A])."""
    return 1.0 - t(subsethood(t, A, B), subsethood(t, B, A))
