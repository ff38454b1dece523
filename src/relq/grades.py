"""Truth-value algebra on the unit interval, in array form.

t-norms (with residua and Archimedean generators), implication operators,
scalar equation solving, equality indices and the distinguishability
metric Q_t.  Every operator is one numpy expression over broadcast arrays,
written once: a t-norm's ``apply``, ``apply_residuum`` (closed forms, or
one bisection over the whole array) and ``min_section_solution``, and the
implications.  ``TNorm.__call__`` and ``TNorm.residuum`` are the same forms
returning a plain float for grades.  ``GeneratorTNorm`` calls its ``f`` and
``f_inv`` once per array when each, tried once on a float array, gives bit
for bit what it gives per Python float; otherwise (a scalar-only generator
such as ``math.log``) one Python float at a time.  It never calls them at 0.

The tolerance policy lives here, as named constants with their reasons
below: TOL (the grade band and grade equality; ``check_grades`` is the one
band check), OBJECTIVE_SLACK, CLOSE_ATOL and CLOSE_RTOL, ZERO_DIST2,
ROUNDING, REPAIR_TOL, IMAGE_TIE, FIT_SLACK, SUPPORT_DIGITS and STOP_TOL.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# Grades within TOL of [0, 1] are accepted and clamped; grades within TOL of
# each other are equal.
TOL = 1e-9
# Objective values (c·x, a fitness, an objective vector) compare within this:
# far below TOL, it keeps summation rounding from splitting a tie, no more.
OBJECTIVE_SLACK = 1e-12
# The Pareto archive's closeness band CLOSE_ATOL + CLOSE_RTOL·|z| (np.isclose's
# default), so TOL-sized repair noise does not crowd the archive.
CLOSE_ATOL = 1e-8
CLOSE_RTOL = 1e-5
# Squared distance (a distance of TOL) at which c-means puts a point wholly on
# a centre: the membership weights divide by it, 0 for a point on a centre.
ZERO_DIST2 = 1e-18
# A few ulp at 1: the bisection predicates compare t(a, x) with b within it,
# and the drastic t-norm counts a grade within it of 1 as 1.
ROUNDING = 1e-15
# Rule K's convergence flag: looser than TOL, because a residuum by
# bisection or through f and f⁻¹ carries their rounding.
REPAIR_TOL = 1e-7
# kagei_type2_unique's image tie: images are mins of stored grades, so ties
# are exact up to the rounding of bound - slack.
IMAGE_TIE = 1e-12
# specificity_shift_fit keeps its earlier (alpha, beta) on a squared-error
# tie within this (the identity pair is scored first).
FIT_SLACK = 1e-15
# Decimals to which sre_solvability_criteria rounds support values.
SUPPORT_DIGITS = 12
# Default of the tolerances that belong to an algorithm, not to grade
# equality: trainer epsilon, c-means and chemical-flow stops, kagei's slack.
STOP_TOL = 1e-6


def check_grades(values, name="grades"):
    """Return values clamped to [0, 1]: a Python number as a float (without
    a numpy call); an array as itself when every cell already lies in
    [0, 1], else as a clamped copy, so a caller that writes into the result
    copies it first.  Raise ValueError unless every cell lies within TOL of
    [0, 1]; NaN and ±inf fail the range test."""
    scalar = isinstance(values, (float, int))
    if not scalar and ((values >= 0.0) & (values <= 1.0)).all():
        return values
    ok = (values >= -TOL) & (values <= 1 + TOL)
    if not (ok if scalar else np.all(ok)):
        bad = float(values) if scalar else float(np.asarray(values)[~ok].flat[0])
        raise ValueError(f"{name} must be finite and lie in [0, 1], got {bad!r}")
    return min(1.0, max(0.0, float(values))) if scalar else np.clip(values, 0.0, 1.0)


def check_integer(name, n, low):
    """A ValueError naming name unless n is an integer (not a bool) of at least low."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < low:
        raise ValueError(f"{name} must be an integer of at least {low}, got {n!r}")


def as_grades(values, size=None, name="grades", of="entries"):
    """values as a flat float vector (a row or a column reads as a vector)
    checked and clamped by check_grades.  With a size, the vector must have
    that many entries: ValueError "<name> has <n> entries for <size> <of>"."""
    vec = np.asarray(values, dtype=float).ravel()
    if size is not None and vec.size != size:
        raise ValueError(f"{name} has {vec.size} entries for {size} {of}")
    return check_grades(vec, name)


def _bisect(low, shape=()):
    """60 halvings of [0, 1] in every cell of ``shape`` at once, each toward
    the point where the monotone predicate low(x) stops holding; returns the
    final (lo, hi) brackets."""
    lo, hi = np.zeros(shape), np.ones(shape)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = low(mid)
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return lo, hi


def _out(r):
    """A plain float for scalar arguments, the array otherwise."""
    return float(r) if np.ndim(r) == 0 else r


# ---------------------------------------------------------------------------
# t-norms
# ---------------------------------------------------------------------------

class TNorm:
    """Base class: a commutative, associative, monotone op with unit 1.

    A t-norm defines ``apply`` (and, where it has closed forms,
    ``apply_residuum`` and ``min_section_solution``) once, over broadcast
    arrays; ``__call__`` and ``residuum`` are those forms on grades.
    ``apply`` must be monotone in each argument, float for float: the
    sorted ``sup_t_compose`` stops early on that."""

    name = "abstract"
    continuous = True

    def apply(self, a, b):
        """t in every broadcast cell of a and b."""
        raise NotImplementedError

    def __call__(self, a, b):
        """apply, as a plain float for two grades."""
        return _out(self.apply(a, b))

    def apply_residuum(self, a, b):
        """sup{x : t(a, x) <= b} in every cell, by bisection unless overridden."""
        a, b = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
        bound = b + ROUNDING
        lo = _bisect(lambda x: self.apply(a, x) <= bound, a.shape)[0]
        return np.where(self.apply(a, 1.0) <= b + TOL, 1.0, lo)

    def residuum(self, a, b):
        """apply_residuum, as a plain float for two grades."""
        return _out(self.apply_residuum(a, b))

    def min_section_solution(self, a, b):
        """Smallest x with t(a, x) >= b in every cell (requires a continuous
        section, a >= b), by bisection unless overridden."""
        a, b = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
        bound = b - ROUNDING
        hi = _bisect(lambda x: ~(self.apply(a, x) >= bound), a.shape)[1]
        return _out(np.where(b <= 0.0, 0.0, hi))

    def __repr__(self):
        return f"<tnorm {self.name}>"


class MinTNorm(TNorm):
    name = "min"

    def apply(self, a, b):
        return np.minimum(a, b)

    def apply_residuum(self, a, b):
        return godel(a, b)

    def min_section_solution(self, a, b):
        return b


class ProductTNorm(TNorm):
    name = "product"

    def apply(self, a, b):
        return a * b

    def apply_residuum(self, a, b):
        below = a <= b + TOL  # divides only where a > b >= 0, never by 0
        return np.where(below, 1.0, b / np.where(below, 1.0, a))

    def min_section_solution(self, a, b):
        # b / a only where b < a, so it never divides by 0 nor overflows
        # (where b >= a > 0, min(1, b / a) is 1)
        over = b >= a
        return _out(np.where(b <= 0.0, 0.0, np.where(over, 1.0, b / np.where(over, 1.0, a))))


class LukasiewiczTNorm(TNorm):
    name = "lukasiewicz"

    def apply(self, a, b):
        return np.maximum(0.0, a + b - 1.0)

    def apply_residuum(self, a, b):
        return lukasiewicz_implication(a, b)

    def min_section_solution(self, a, b):
        return _out(np.where(b <= 0.0, 0.0, np.minimum(1.0, 1.0 - a + b)))


class DrasticTNorm(TNorm):
    """t(a,b) = min(a,b) when max(a,b)=1, else 0.  Not continuous."""

    name = "drastic"
    continuous = False

    def apply(self, a, b):
        return np.where(a >= 1.0 - ROUNDING, b, np.where(b >= 1.0 - ROUNDING, a, 0.0))

    def apply_residuum(self, a, b):
        # For a < 1 every x < 1 satisfies t(a,x)=0 <= b, so the sup is 1.
        return np.where((a >= 1.0 - ROUNDING) & (a > b + TOL), b, 1.0)


# Points of (0, 1) on which GeneratorTNorm tries its f once, over a float
# array: a regular grid and small grades.  Its f_inv is tried on them times
# f(0), or times 1000 when f(0) is inf, inside f_inv's domain (0, f(0)).
# Plain floats: numpy's linspace and geomspace here added 0.4 MB to the peak
# RSS of every `import relq`.
_PROBE = tuple(k / 64 for k in range(1, 64)) + (1e-3, 1e-6, 1e-12, 1e-30, 1e-100, 1e-300)


def _array_form(fn, probe):
    """fn itself when, called once on the float array probe, it returns a
    float array of probe's shape that is bit for bit fn on each cell as a
    Python float; else fn called one Python float at a time, as floats."""
    per_cell = np.frompyfunc(fn, 1, 1)

    def cells(v):
        return per_cell(v).astype(float)

    try:
        with np.errstate(over="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            want, got = cells(probe), fn(probe.copy())
    except Exception:  # raising is one way of not taking an array
        return cells
    fits = isinstance(got, np.ndarray) and got.dtype == float and got.shape == probe.shape
    return fn if fits and got.tobytes() == want.tobytes() else cells


class GeneratorTNorm(TNorm):
    """Archimedean t-norm from a decreasing generator f with f(1)=0.

    t(a,b) = f^(-1)(f(a) + f(b)) where f^(-1) is the pseudo-inverse: 1 at
    or below 0, 0 at or above f(0), ``f_inv`` (clamped to [0, 1]) between,
    or a bisection on f when ``f_inv`` is None.  Here, once, ``f`` is tried
    on a float array of grades in (0, 1) and ``f_inv`` on one of values in
    (0, f(0)): one that gives bit for bit what it gives per Python float is
    then called once per array; one that raises, gives another shape or
    other bits is called one Python float at a time, so ``math.log`` works.
    Neither is called at 0: there the t-norm uses ``f_zero``, f(0.0) taken
    once here with numpy's divide and invalid warnings off (inf when it
    raises).
    """

    name = "generator"

    def __init__(self, f, f_inv=None, name=None):
        self.f = f
        if name:
            self.name = name
        try:
            with np.errstate(divide="ignore", invalid="ignore"):
                f_zero = f(0.0)
        except (ValueError, ZeroDivisionError, OverflowError):
            f_zero = math.inf
        self.f_zero = f_zero
        probe = np.array(_PROBE)
        self._f = _array_form(f, probe)
        self._f_inv = None if f_inv is None else _array_form(f_inv, probe * min(f_zero, 1e3))

    # f, f_inv and f(a) + f(b) overflow to inf silently, as Python floats do
    @np.errstate(over="ignore")
    def apply(self, a, b):
        y = self._f_or_zero(a) + self._f_or_zero(b)
        x = np.where(y <= 0.0, 1.0, 0.0)
        inner = (y > 0.0) & (y < self.f_zero)
        yi = y[inner]
        if self._f_inv is not None:
            x[inner] = np.minimum(1.0, np.maximum(0.0, self._f_inv(yi)))
        else:  # f decreasing, f(1) = 0 <= y
            x[inner] = _bisect(lambda u: self._f(u) > yi, yi.shape)[1]
        return x

    def _f_or_zero(self, v):
        """f in every cell of v, and f_zero (not f) where v is 0."""
        v = np.asarray(v, float)
        fv = np.full(v.shape, self.f_zero, float)
        pos = v > 0.0
        fv[pos] = self._f(v[pos])
        return fv


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
        return tnorm.residuum
    try:
        return _IMPLICATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown implication {name!r}; choose from {sorted(_IMPLICATIONS)} or 'residuum'"
        ) from None


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
    a = check_grades(a, "a")
    b = check_grades(b, "b")
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
    f = check_grades(f, "f")
    b = check_grades(b, "b")
    return 1.0 - abs(f - b)


def subsethood(t: TNorm, A, B):
    """inf_x w_t(A(x), B(x)) — graded inclusion of A in B."""
    A = as_grades(A, name="A")
    B = as_grades(B, A.size, "B", "grades of A")
    return float(np.min(t.apply_residuum(A, B), initial=1.0))


def q_metric(t: TNorm, A, B):
    """Distinguishability Q_t(A,B) = 1 - t([A in B], [B in A])."""
    return 1.0 - t(subsethood(t, A, B), subsethood(t, B, A))
