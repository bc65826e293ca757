"""Analytic value densities on the cake [0, 1].

Every family stores its shape parameters plus a positive ``scale`` multiplier
and knows its exact antiderivative, so interval measures are closed-form
differences F(b) - F(a) rather than quadrature.  Inverse measures (the ground
truth behind cut queries) are exact to float resolution: closed-form wherever
the antiderivative inverts analytically, otherwise (``BinomialPoly``) bisection
on the test ``F(mid) - F(l) < target`` until the bracket's endpoints are
adjacent doubles.

When a >= 0 and b >= 0, ``BinomialPoly`` first narrows that bracket with Newton
steps while each is under half the one before (the bracket's midpoint for a
step that would leave it), from the root of the chord of F over [l, 1], or
from the double below 1 when that root is 1 (a cut of the remaining mass).
Once per cut, a step too slow to halve from right of the root (far above a
monomial's root Newton crawls at ratio s/(s+1)) is replaced by the root of the
power law through (x, F(x)) with slope f(x): log F is convex in log x, F being
a sum of powers with nonnegative coefficients, so that root lies between the
root and x.  The step that converges or fails to
halve is pushed an ulp or more past the root and doubled until the test flips
(the nudge), and the same bisection finishes the bracket.
While the test is monotone over the doubles of [l, 1], the bisection returns
the least double where it is false (or 1.0 if there is none), and so does any
bracket that moves only on evaluated values of the test and ends at adjacent
doubles.  The test is monotone when a >= 0 and b >= 0: every operation of
``a * x**(s+1) / (s+1) + b * x**(t+1) / (t+1)`` then rounds a nondecreasing
function.  With a < 0 the two terms cancel, the float F is not monotone, and a
narrowed bracket can end a few ulps away, so such densities keep plain bisection.

``PiecewiseLinear`` and ``PiecewiseConstant`` share one set of segment
kernels (``_Segments``): a step density is the piecewise-linear one whose
slopes are (0.0,) * m and whose intercepts are its heights, so both families
take the same float operations in every eval and cut.

A cut computes F(l) once and hands it to the family as ``base``:
``_inverse_unscaled(l, target, base)`` returns the leftmost y >= l with
F(y) - base = target, where base = F(l) exactly as ``_cumulative(l)`` gives it.

All densities are immutable; every operation is a pure function of its
parameters.  Derived constants (F(0) and F(1) as ``_bottom`` and ``_top``, knot
and prefix tables with the piecewise-linear range, a step density's slopes and
intercepts, the Gaussian's ``NormalDist``) are fixed in ``__post_init__`` (or,
for the normalized restrictions of ``restrict_unit``, by the same steps in the
same order) and never written lazily: on CPython 3.11 an attribute added after
construction (as ``functools.cached_property`` does) turns off the fast
attribute loads that ``_cumulative`` relies on (lazily cached constants made
``BinomialPoly._cumulative`` about 1.8x slower); the binomial cut goes further,
with its constants in local names and F and f inline.  ``measure`` reads
``_bottom`` for intervals from 0, so a Gaussian eval there costs one ``erf``.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import MISSING, dataclass
from fractions import Fraction
from statistics import NormalDist

import numpy as np

from .errors import (
    DegenerateDensityError,
    DomainError,
    NotFullSupportError,
    UnsupportedFamilyError,
)

_SQRT2 = math.sqrt(2.0)
_EPS = sys.float_info.epsilon
_SQRT_EPS = math.sqrt(_EPS)


@dataclass(frozen=True)
class DensityBounds:
    """Pointwise density bounds L <= f(x) <= U."""

    lower: float
    upper: float

    @property
    def lipschitz(self) -> float:
        """The induced query Lipschitz constant max{1/L, U, U/L}; inf when L == 0."""
        if self.lower == 0.0:
            return math.inf
        return max(1.0 / self.lower, self.upper, self.upper / self.lower)


def _check_point(x: float, name: str = "x") -> None:
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"{name}={x} outside [0, 1]")


class Density:
    """Base class for analytic densities; subclasses are frozen dataclasses.

    Subclasses implement the unscaled shape via ``_density``/``_cumulative``
    (antiderivative from 0) and the cut via ``_inverse_unscaled(l, target,
    base)``; ``base`` is ``_cumulative(l)``, computed once per cut.  The
    public methods add the ``scale`` factor, domain checks and the cut-query
    truncation convention.

    Every subclass sets its derived constants in ``__post_init__`` (see the
    module docstring for why never lazily), among them ``_bottom`` and ``_top``
    through ``_set_ends``, so the attributes of a density do not change after
    construction, and names them in ``_derived`` in the order it sets them.
    """

    family: str  # the family's name in the JSON schema, set by each family class
    scale: float
    _bottom: float
    _top: float
    #: The constants ``__post_init__`` derives from the shape, none of which
    #: depends on the scale: a rescaled copy takes them as they are.
    _derived: tuple[str, ...] = ("_bottom", "_top")

    # -- family internals -------------------------------------------------

    def _density(self, x: float) -> float:
        raise NotImplementedError

    def _densities(self, xs: np.ndarray) -> np.ndarray:
        """``_density`` over an array of points in [0, 1], by the same operations in the same order."""
        raise NotImplementedError

    def _cumulative(self, x: float) -> float:
        raise NotImplementedError

    def _inverse_unscaled(self, l: float, target: float, base: float) -> float:
        """Leftmost y >= l with cumulative(y) - base = target, base = cumulative(l) (no truncation)."""
        raise NotImplementedError

    def _range(self) -> tuple[float, float]:
        """(min, max) of the unscaled density over [0, 1]."""
        raise NotImplementedError

    def _set_ends(self) -> None:
        """Fix F(0) as ``_bottom`` and F(1) as ``_top``, once the shape's other constants are set."""
        object.__setattr__(self, "_bottom", self._cumulative(0.0))
        object.__setattr__(self, "_top", self._cumulative(1.0))

    # -- public operations -------------------------------------------------

    def value_at(self, x: float) -> float:
        """Pointwise density f(x)."""
        _check_point(x)
        return self.scale * self._density(x)

    def _values_at(self, xs: np.ndarray) -> np.ndarray:
        """``value_at`` over an array of points in [0, 1], unchecked.

        Bit-identical to ``value_at`` except where numpy's ``exp`` and ``power``
        round differently from the C library's: Gaussian, exponential and
        binomial values may lie a few ulps away.
        """
        return self.scale * self._densities(xs)

    def measure(self, a: float, b: float) -> float:
        """v([a, b]) = F(b) - F(a), exact per-family antiderivative; F(0) is ``_bottom``."""
        if not 0.0 <= a <= b <= 1.0:
            _check_point(a, "a")
            _check_point(b, "b")
            raise DomainError(f"reversed interval [{a}, {b}]")
        return self.scale * (self._cumulative(b) - (self._bottom if a == 0.0 else self._cumulative(a)))

    def inverse_measure(self, l: float, tau: float) -> float:
        """Smallest y in [l, 1] with measure(l, y) = tau, to the double; 1 if tau exceeds measure(l, 1)."""
        if not (0.0 <= l <= 1.0 and tau > 0.0):
            _check_point(l, "l")
            if tau < 0.0:
                raise DomainError(f"negative target value tau={tau}")
            if tau == 0.0:
                return l
            raise DomainError(f"target value tau={tau} is not a number")
        base = self._cumulative(l)
        if self.scale * (self._top - base) < tau:
            return 1.0
        y = self._inverse_unscaled(l, tau / self.scale, base)
        return l if l > y else (1.0 if y > 1.0 else y)  # min(max(y, l), 1.0), without the calls

    def normalized(self) -> "Density":
        """Rescaled copy with total measure 1 over [0, 1]."""
        total = self.measure(0.0, 1.0)
        if total <= 0.0:
            raise DegenerateDensityError("density has nonpositive total measure")
        return self._rescaled(self.scale / total)

    def _rescaled(self, scale: float) -> "Density":
        """``dataclasses.replace(self, scale=scale)`` without re-deriving the shape's constants.

        The attributes are read one by one, never through ``vars(self)``, which
        on CPython 3.11 would turn off this density's fast attribute loads.
        """
        copy = object.__new__(type(self))
        for name in (*self.__dataclass_fields__, *self._derived):
            object.__setattr__(copy, name, getattr(self, name))
        object.__setattr__(copy, "scale", scale)
        _check_params(copy)
        return copy

    def bounds(self) -> DensityBounds:
        """Pointwise bounds over [0, 1]; lipschitz is inf when the density touches 0."""
        return DensityBounds(*self._bounds_pair())

    def _bounds_pair(self) -> tuple[float, float]:
        """``bounds()`` as a (lower, upper) pair, without building a DensityBounds."""
        lo, hi = self._range()
        lo, hi = self.scale * lo, self.scale * hi
        if lo < 0.0 or hi <= 0.0:
            raise NotFullSupportError(f"density range [{lo}, {hi}] is not admissible")
        return lo, hi

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """The JSON object of ``density_from_dict``: the family, then the fields in order, tuples as lists."""
        out = {"family": self.family}
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            out[name] = list(value) if isinstance(value, tuple) else value
        return out


def _check_params(spec: Density, *shape: float) -> None:
    """DomainError unless the shape parameters and the scale are finite; the scale must be positive."""
    for v in shape:
        if not math.isfinite(v):
            raise DomainError(f"{type(spec).__name__} parameter {v!r} is not finite")
    scale = spec.scale
    if not 0.0 < scale < math.inf:
        if math.isfinite(scale):
            raise DegenerateDensityError(f"scale must be positive, got {scale}")
        raise DomainError(f"{type(spec).__name__} scale {scale!r} is not finite")


@dataclass(frozen=True)
class Uniform(Density):
    scale: float = 1.0
    family = "uniform"

    def __post_init__(self):
        _check_params(self)
        self._set_ends()

    def _density(self, x):
        return 1.0

    def _densities(self, xs):
        return np.ones_like(xs)

    def _cumulative(self, x):
        return x

    def _inverse_unscaled(self, l, target, base):
        return l + target

    def _range(self):
        return 1.0, 1.0


def _linear_root(half_slope: float, intercept: float, rhs: float, lo: float, hi: float) -> float:
    """Solve half_slope*y^2 + intercept*y = rhs for the root in [lo, hi].

    That is the first root, (-intercept + disc) / (2 half_slope), at which the
    segment's density 2 half_slope y + intercept = disc is nonnegative; it is
    clamped to [lo, hi] against rounding.  Where the intercept is positive and
    4|half_slope*rhs| < intercept^2 2^-10, -intercept + disc loses 10 bits or
    more to cancellation, so the first root is taken in the rationalized form
    2 rhs / (intercept + disc) (Goldberg, "What Every Computer Scientist Should
    Know About Floating-Point Arithmetic", 1991).
    """
    if half_slope == 0.0:
        return rhs / intercept
    disc = intercept * intercept + 4.0 * half_slope * rhs
    disc = math.sqrt(0.0 if disc < 0.0 else disc)
    if intercept > 0.0 and 4.0 * abs(half_slope * rhs) < intercept * intercept * 2.0 ** -10:
        root = 2.0 * rhs / (intercept + disc)
    else:
        root = (-intercept + disc) / (2.0 * half_slope)
    return lo if root < lo else hi if root > hi else root  # min(max(root, lo), hi), without the calls


@dataclass(frozen=True)
class Linear(Density):
    """f(x) = scale * (a*x + b); must be nonnegative on [0, 1]."""

    a: float
    b: float
    scale: float = 1.0
    family = "linear"

    def __post_init__(self):
        _check_params(self, self.a, self.b)
        if min(self.b, self.a + self.b) < 0.0:
            raise NotFullSupportError(f"linear density {self.a}*x+{self.b} negative on [0,1]")
        self._set_ends()

    def _density(self, x):
        return self.a * x + self.b

    def _densities(self, xs):
        return self.a * xs + self.b

    def _cumulative(self, x):
        return 0.5 * self.a * x * x + self.b * x

    def _inverse_unscaled(self, l, target, base):
        return _linear_root(0.5 * self.a, self.b, target + base, l, 1.0)

    def _range(self):
        ends = (self.b, self.a + self.b)
        return min(ends), max(ends)


@dataclass(frozen=True)
class BinomialPoly(Density):
    """f(x) = scale * (a*x^s + b*x^t) with integer exponents s > t >= 0.

    Its cut evaluates F and f inline, by ``_cumulative``'s and ``_density``'s expressions
    (to the same floats): on its ~10 evaluations, calls would cost more than arithmetic.
    """

    a: float
    b: float
    s: int
    t: int
    scale: float = 1.0
    family = "binomial_poly"
    _derived = ("_s1", "_t1", "_bottom", "_top", "_newton")

    def __post_init__(self):
        _check_params(self, self.a, self.b)
        if not (isinstance(self.s, int) and isinstance(self.t, int) and self.s > self.t >= 0):
            raise DomainError(f"binomial exponents must be integers s > t >= 0, got s={self.s}, t={self.t}")
        if min(v for v, _ in self._candidates()) < 0.0:
            raise NotFullSupportError("binomial polynomial negative on [0,1]")
        object.__setattr__(self, "_s1", self.s + 1)  # exponents of the antiderivative
        object.__setattr__(self, "_t1", self.t + 1)
        self._set_ends()
        # Newton-narrowed cuts only where F's rounding is monotone (see the module docstring)
        object.__setattr__(self, "_newton", self.a >= 0.0 and self.b >= 0.0)

    def _candidates(self):
        pts = [0.0, 1.0]
        # interior stationary point of a*x^s + b*x^t, when it exists
        if self.a != 0.0 and self.t >= 1:
            ratio = -(self.b * self.t) / (self.a * self.s)
            if ratio > 0.0:
                x = ratio ** (1.0 / (self.s - self.t))
                if 0.0 < x < 1.0:
                    pts.append(x)
        return [(self._density(x), x) for x in pts]

    def _density(self, x):
        return self.a * x**self.s + self.b * x**self.t

    def _densities(self, xs):
        return self.a * xs**self.s + self.b * xs**self.t

    def _cumulative(self, x):
        return self.a * x ** self._s1 / self._s1 + self.b * x ** self._t1 / self._t1

    def _inverse_unscaled(self, l, target, base):
        a, b, s, t, s1, t1 = self.a, self.b, self.s, self.t, self._s1, self._t1
        lo, hi = l, 1.0
        if self._newton:
            # Newton, the power-law step once, then the nudge (see the module
            # docstring); every evaluated point moves lo or hi by the bisection's test
            x = l + (1.0 - l) * (target / (self._top - base))
            if not x < hi:  # a cut of the remaining mass: start Newton just inside the bracket
                x = math.nextafter(hi, lo)
            last, nudge, side, leap = math.inf, 0.0, None, True
            while lo < x < hi:
                cum = a * x ** s1 / s1 + b * x ** t1 / t1  # F(x)
                value = cum - base
                below = value < target
                if below:
                    lo = x
                else:
                    hi = x
                if side is not None:
                    if below != side:
                        break  # the nudge crossed the root: the bracket is closed
                    nudge *= 2.0  # still on the root's near side
                    x -= nudge
                    continue
                slope = a * x ** s + b * x ** t  # f(x)
                if not slope > 0.0:
                    break
                dx = (value - target) / slope
                step = abs(dx)
                if _EPS * x < step < 0.5 * last:
                    last = step
                    x -= dx
                    if not lo < x < hi:
                        x = 0.5 * (lo + hi)  # the step left the bracket: bisect once, then Newton again
                    continue
                if leap and not below and _SQRT_EPS * x < dx:
                    # too slow to halve, right of the root and far above rounding
                    # noise (2 eps x at most, as F(x) <= x f(x)): the power-law step
                    leap, power = False, x * slope / cum  # the power law's exponent
                    y = x * ((target + base) / cum) ** (1.0 / power) if power > 0.0 else x
                    if lo < y < hi:
                        last, x = x - y, y
                        continue
                if not math.isfinite(dx):
                    break
                # converged, or too slow to halve: step an ulp or more past the
                # root, doubling the step until the bracket closes from the other side
                nudge = dx + math.copysign(math.ulp(x), dx)
                side = below
                x -= nudge
        # bisect to adjacent doubles: lo is l or held the test, hi is 1.0 or failed it
        while True:
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                return hi  # lo and hi are adjacent doubles
            if a * mid ** s1 / s1 + b * mid ** t1 / t1 - base < target:
                lo = mid
            else:
                hi = mid

    def _range(self):
        vals = [v for v, _ in self._candidates()]
        return min(vals), max(vals)


def _check_breakpoints(breakpoints: tuple[float, ...]) -> None:
    prev = 0.0
    for p in breakpoints:
        if not 0.0 < p < 1.0:
            raise DomainError(f"breakpoint {p} outside (0, 1)")
        if p <= prev:
            raise DegenerateDensityError(f"breakpoints not strictly increasing at {p}")
        prev = p


def _segment_tables(knots, slopes, intercepts):
    """The prefix masses, the (min, max) of the segment end values and F(0), F(1) of segments.

    Segment j is slopes[j]*x + intercepts[j] on [knots[j], knots[j+1]].  One
    pass sums their masses and keeps the first-seen extremes of their end
    values, as min() and max() keep them, the low one clamped at 0; F(1) is
    what ``_Segments._cumulative(1.0)`` computes, and F(0) is 0.0, since
    ``_cumulative(0.0)`` adds only signed zeros to 0.0.  It checks no sign:
    a constructor rejects negative input before, and a restricted segment
    that falls to 0 at a knot may end a few ulps below it.
    """
    acc, cum = 0.0, [0.0]
    low, high = math.inf, -math.inf
    for s, c, lo, hi in zip(slopes, intercepts, knots, knots[1:]):
        f_lo, f_hi = s * lo + c, s * hi + c
        acc += 0.5 * s * (hi * hi - lo * lo) + c * (hi - lo)
        cum.append(acc)
        if f_lo < low:
            low = f_lo
        if f_hi < low:
            low = f_hi
        if f_lo > high:
            high = f_lo
        if f_hi > high:
            high = f_hi
    top = cum[-2] + 0.5 * s * (1.0 * 1.0 - lo * lo) + c * (1.0 - lo)  # the last segment's s, c, lo
    return tuple(cum), (max(low, 0.0), high), 0.0, top


class _Segments(Density):
    """The segment kernels of the piecewise-linear families.

    Segment j is slopes[j]*x + intercepts[j] on [knot_j, knot_{j+1}], with
    knots (0, *breakpoints, 1).  A subclass sets ``breakpoints``, ``slopes``
    and ``intercepts`` (as fields, or derived from its own) and then calls
    ``_set_tables``.
    """

    breakpoints: tuple[float, ...]
    slopes: tuple[float, ...]
    intercepts: tuple[float, ...]
    _derived = ("_knots", "_cum", "_extent", "_bottom", "_top")

    def _set_tables(self) -> None:
        """Fix the knots, the prefix masses, the (min, max) of ``_range`` and the ends."""
        knots = (0.0, *self.breakpoints, 1.0)
        cum, extent, bottom, top = _segment_tables(knots, self.slopes, self.intercepts)
        object.__setattr__(self, "_knots", knots)
        object.__setattr__(self, "_cum", cum)  # _cum[j] = unscaled mass of [0, _knots[j]]
        object.__setattr__(self, "_extent", extent)
        object.__setattr__(self, "_bottom", bottom)
        object.__setattr__(self, "_top", top)

    def _segment(self, x: float) -> int:
        """Index of the segment that holds x in [0, 1]; the last one holds 1.0."""
        return bisect_right(self.breakpoints, x)

    def _density(self, x):
        j = self._segment(x)
        return self.slopes[j] * x + self.intercepts[j]

    def _densities(self, xs):
        j = np.searchsorted(self.breakpoints, xs, side="right")
        return np.take(self.slopes, j) * xs + np.take(self.intercepts, j)

    def _cumulative(self, x):
        j = bisect_right(self.breakpoints, x)  # _segment(x), inlined: the hottest call of PL-EF
        lo = self._knots[j]
        return self._cum[j] + 0.5 * self.slopes[j] * (x * x - lo * lo) + self.intercepts[j] * (x - lo)

    def _inverse_unscaled(self, l, target, base):
        goal = base + target
        knots, cum, last = self._knots, self._cum, len(self.slopes) - 1
        j = bisect_right(self.breakpoints, l)  # _segment(l), inlined
        start, f_start = max(knots[j], l), base  # knots[j] <= l, so F(start) is base
        while True:
            if goal <= f_start or f_start >= cum[-1]:
                # leftmost point: the mass is reached at the segment start, or the
                # rest of the cake has none (goal overshoots the total by rounding)
                return start
            if goal <= cum[j + 1] or j == last:
                s, c = self.slopes[j], self.intercepts[j]
                if s == 0.0:  # a step; a zero step has no mass and returned above
                    return start + (goal - f_start) / c
                rhs = goal - f_start + 0.5 * s * start * start + c * start
                return _linear_root(0.5 * s, c, rhs, start, knots[j + 1])
            j += 1
            start = knots[j]
            f_start = cum[j]  # what _cumulative(start) gives: it adds only signed zeros to it

    def _range(self):
        return self._extent


@dataclass(frozen=True)
class PiecewiseLinear(_Segments):
    """Piecewise linear density: segment j is slope[j]*x + intercept[j] on [knot_j, knot_{j+1}].

    Knots are (0, *breakpoints, 1).  Segments need not join continuously and may
    touch zero, but no segment may be negative anywhere (beyond -1e-15 at an end).
    """

    breakpoints: tuple[float, ...]
    slopes: tuple[float, ...]
    intercepts: tuple[float, ...]
    scale: float = 1.0
    family = "piecewise_linear"

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", tuple(float(p) for p in self.breakpoints))
        object.__setattr__(self, "slopes", tuple(float(s) for s in self.slopes))
        object.__setattr__(self, "intercepts", tuple(float(c) for c in self.intercepts))
        _check_params(self, *self.slopes, *self.intercepts)
        _check_breakpoints(self.breakpoints)
        if len(self.slopes) != len(self.breakpoints) + 1 or len(self.slopes) != len(self.intercepts):
            raise DomainError("need exactly len(breakpoints)+1 segments")
        knots = (0.0, *self.breakpoints, 1.0)
        for s, c, lo, hi in zip(self.slopes, self.intercepts, knots[:-1], knots[1:]):
            if s * lo + c < -1e-15 or s * hi + c < -1e-15:
                raise NotFullSupportError(f"segment {s}*x+{c} negative on [{lo}, {hi}]")
        self._set_tables()

    def to_dict(self):
        return {
            "family": self.family,
            "breakpoints": list(self.breakpoints),
            "segments": [{"slope": s, "intercept": c} for s, c in zip(self.slopes, self.intercepts)],
            "scale": self.scale,
        }


@dataclass(frozen=True)
class PiecewiseConstant(_Segments):
    """Step density: heights[j] on [knot_j, knot_{j+1}] with knots (0, *breakpoints, 1).

    Its segments have ``slopes`` (0.0,) * m and ``intercepts`` equal to the
    heights, derived constants that the shared segment kernels read.
    """

    breakpoints: tuple[float, ...]
    heights: tuple[float, ...]
    scale: float = 1.0
    family = "piecewise_constant"
    _derived = ("slopes", "intercepts", *_Segments._derived)

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", tuple(float(p) for p in self.breakpoints))
        object.__setattr__(self, "heights", tuple(float(h) for h in self.heights))
        _check_params(self, *self.heights)
        _check_breakpoints(self.breakpoints)
        if len(self.heights) != len(self.breakpoints) + 1:
            raise DomainError("need exactly len(breakpoints)+1 heights")
        if min(self.heights) < 0.0:
            raise NotFullSupportError("negative step height")
        object.__setattr__(self, "slopes", (0.0,) * len(self.heights))
        object.__setattr__(self, "intercepts", self.heights)
        self._set_tables()


@dataclass(frozen=True)
class GaussianRestricted(Density):
    """Gaussian bell with mean mu and deviation sigma, restricted to [0, 1]."""

    mu: float
    sigma: float
    scale: float = 1.0
    family = "gaussian_restricted"
    _derived = ("_normal", "_bottom", "_top")

    def __post_init__(self):
        _check_params(self, self.mu, self.sigma)
        if not self.sigma > 0.0:
            raise DomainError(f"sigma must be positive, got {self.sigma}")
        object.__setattr__(self, "_normal", NormalDist(self.mu, self.sigma))
        self._set_ends()

    def _density(self, x):
        z = (x - self.mu) / self.sigma
        return math.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2.0 * math.pi))

    def _densities(self, xs):
        z = (xs - self.mu) / self.sigma
        return np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2.0 * math.pi))

    def _cumulative(self, x):
        # the standard normal CDF at z = (x - mu) / sigma, written out for speed
        return 0.5 * (1.0 + math.erf((x - self.mu) / self.sigma / _SQRT2))

    def _inverse_unscaled(self, l, target, base):
        p = base + target
        if p >= self._top:
            return 1.0
        return self._normal.inv_cdf(p)

    def _range(self):
        far = 0.0 if abs(self.mu - 0.0) >= abs(self.mu - 1.0) else 1.0
        near = min(max(self.mu, 0.0), 1.0)
        return self._density(far), self._density(near)


@dataclass(frozen=True)
class ExponentialRestricted(Density):
    """f(x) = scale * rate * exp(-rate*x) on [0, 1], rate > 0."""

    rate: float
    scale: float = 1.0
    family = "exponential_restricted"

    def __post_init__(self):
        _check_params(self, self.rate)
        if not self.rate > 0.0:
            raise DomainError(f"rate must be positive, got {self.rate}")
        self._set_ends()

    def _density(self, x):
        return self.rate * math.exp(-self.rate * x)

    def _densities(self, xs):
        return self.rate * np.exp(-self.rate * xs)

    def _cumulative(self, x):
        return -math.expm1(-self.rate * x)  # keeps its relative precision near 0

    def _inverse_unscaled(self, l, target, base):
        # exp(-rate y) = exp(-rate l) (1 - u) with u = target exp(rate l).  A
        # truncated cut returns before this, so rate l stays below exp's overflow.
        u = target * math.exp(self.rate * l)
        if u >= 1.0:
            return 1.0
        return l - math.log1p(-u) / self.rate

    def _range(self):
        return self._density(1.0), self._density(0.0)


# -- conversion helpers ------------------------------------------------------


def as_piecewise_linear(spec: Density) -> PiecewiseLinear | PiecewiseConstant:
    """A uniform or linear density as PiecewiseLinear; a piecewise one as it is."""
    if isinstance(spec, _Segments):
        return spec
    if isinstance(spec, Uniform):
        return PiecewiseLinear((), (0.0,), (1.0,), scale=spec.scale)
    if isinstance(spec, Linear):
        return PiecewiseLinear((), (spec.a,), (spec.b,), scale=spec.scale)
    raise UnsupportedFamilyError(f"{type(spec).__name__} is not piecewise linear")


def restrict_unit(spec: PiecewiseLinear | PiecewiseConstant, a: float, b: float) -> PiecewiseLinear:
    """Spec's restriction to [a, b], reparametrized onto the unit cake and normalized.

    The unscaled shape is g(y) = f(a + y*(b-a)) * (b-a), so the measure of
    [p, q] under g is proportional to the measure of the mapped subinterval
    under f; the scale makes g's total measure 1.  The result is the one
    ``PiecewiseLinear(...)`` followed by ``.normalized()`` gives, by the same
    float operations (``_segment_tables``, the pass the constructor runs, the
    scale spec.scale / (spec.scale * (F(1) - F(0))) and its checks), built
    once, with the attributes set in the constructor's order.  The
    breakpoints increase strictly inside (0, 1) and every coefficient is
    finite by construction, so neither is checked again.  Nor is the sign,
    since spec is nonnegative: a segment that falls to 0 at one of spec's
    knots may end a few ulps below 0 after the cancelling (s*a + c), which
    the constructor would reject, and ``bounds()`` reads that low end as 0.
    """
    if not 0.0 <= a < b <= 1.0:
        raise DomainError(f"invalid restriction window [{a}, {b}]")
    w = b - a
    brk, spec_slopes, spec_intercepts = spec.breakpoints, spec.slopes, spec.intercepts
    knots, slopes, intercepts = [0.0], [], []
    lo = a  # the left end of the segment being made
    for hi in (*brk[bisect_right(brk, a):bisect_left(brk, b)], b):  # the t with a < t < b, then b
        y = (hi - a) / w if hi < b else 1.0
        if knots[-1] < y < 1.0 or hi == b:  # each knot strictly inside (0, 1) once, then 1
            j = bisect_right(brk, 0.5 * (lo + hi))  # spec._segment of the edge's midpoint
            s = spec_slopes[j]
            slopes.append(s * w * w)
            intercepts.append((s * a + spec_intercepts[j]) * w)
            knots.append(y)
            lo = hi
    knots = tuple(knots)
    cum, extent, bottom, top = _segment_tables(knots, slopes, intercepts)
    total = spec.scale * (top - bottom)  # measure(0, 1), as normalized() asks it
    if total <= 0.0:
        raise DegenerateDensityError("density has nonpositive total measure")
    g = object.__new__(PiecewiseLinear)  # the fields in the constructor's order, then its tables
    put = object.__setattr__
    put(g, "breakpoints", knots[1:-1])
    put(g, "slopes", tuple(slopes))
    put(g, "intercepts", tuple(intercepts))
    put(g, "scale", spec.scale / total)
    put(g, "_knots", knots)
    put(g, "_cum", cum)
    put(g, "_extent", extent)
    put(g, "_bottom", bottom)
    put(g, "_top", top)
    if not 0.0 < g.scale < math.inf:
        _check_params(g)  # raises the constructor's error for this scale
    return g


# -- JSON schema -------------------------------------------------------------


def _num(v) -> float:
    """JSON number or exact-rational string like '1/3', evaluated to float once."""
    x = float(Fraction(v)) if isinstance(v, str) else float(v)
    if not math.isfinite(x):
        raise DomainError(f"{v!r} is not a finite number")
    return x


def _exponent(v) -> int:
    """JSON integer exponent; an integral float like 2.0 passes, 2.5, true or "2" does not."""
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if isinstance(v, bool) or not isinstance(v, int):
        raise DomainError(f"exponent {v!r} is not an integer")
    return v


def _numbers(v) -> tuple[float, ...]:
    """JSON list of numbers, each read by ``_num``."""
    return tuple(_num(x) for x in v)


#: The reader of a JSON value, by the declared type of the field it fills.
_READERS = {"float": _num, "int": _exponent, "tuple[float, ...]": _numbers}


def _read_piecewise_linear(d: dict) -> PiecewiseLinear:
    """A piecewise-linear density from its breakpoints and its nested ``segments`` list."""
    scale, breakpoints, segments = _num(d.get("scale", 1.0)), _numbers(d["breakpoints"]), d["segments"]
    return PiecewiseLinear(breakpoints, tuple(_num(seg["slope"]) for seg in segments),
                           tuple(_num(seg["intercept"]) for seg in segments), scale=scale)


def _field_reader(cls: type):
    """Reader of a ``cls`` JSON object: (name, reader, required) for each field, fixed once.

    A missing optional field keeps its default.  The optional fields (the
    scale) are read first, so a malformed scale is reported before a missing key.
    """
    fields = sorted(((f.name, _READERS[f.type], f.default is MISSING) for f in dataclasses.fields(cls)),
                    key=lambda field: field[2])
    return lambda d: cls(**{name: read(d[name]) for name, read, required in fields if required or name in d})


#: family -> reader of its JSON object, built once at import.
_FAMILIES = {cls.family: _field_reader(cls) for cls in (Uniform, Linear, BinomialPoly, PiecewiseConstant,
                                                         GaussianRestricted, ExponentialRestricted)}
_FAMILIES[PiecewiseLinear.family] = _read_piecewise_linear


def density_from_dict(d: dict) -> Density:
    """Parse the per-family JSON schema into a density; malformed input is a DomainError."""
    try:
        family = d["family"]
    except (TypeError, KeyError):
        raise DomainError("density object missing 'family'") from None
    try:
        read = _FAMILIES[family]
    except (TypeError, KeyError):  # TypeError: an unhashable family
        raise UnsupportedFamilyError(f"unknown density family {family!r}") from None
    try:
        return read(d)
    except KeyError as exc:
        raise DomainError(f"{family!r} density is missing {exc}") from None
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise DomainError(f"malformed {family!r} density: {exc}") from None
