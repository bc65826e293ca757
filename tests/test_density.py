import math
from bisect import bisect_right
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairslice import (
    BinomialPoly,
    DensityBounds,
    ExponentialRestricted,
    GaussianRestricted,
    Instance,
    Linear,
    PiecewiseConstant,
    PiecewiseLinear,
    QueryLedger,
    Uniform,
    density_from_dict,
    envy_free,
    max_nash,
    perturb,
    pl_ef,
)
from fairslice.density import as_piecewise_linear, restrict_unit
from fairslice.errors import (
    DegenerateDensityError,
    DomainError,
    FairsliceError,
    NotFullSupportError,
    UnsupportedFamilyError,
)
from gen import binomial_instance, op_intervals

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
ZERO_TAIL_L = 0.04359839244293869


def right_spike_density(lam=10.0):
    return PiecewiseLinear(
        (1.0 - 1.0 / lam,),
        (0.0, 2.0 * lam * lam / 3.0),
        (lam / (3.0 * (lam - 1.0)), lam - 2.0 * lam * lam / 3.0),
    )


class TestValueAt:
    def test_uniform(self):
        assert Uniform().value_at(0.3) == 1.0

    def test_linear_at_origin(self):
        assert Linear(1.0, 0.5).value_at(0.0) == 0.5

    def test_right_spike_branch(self):
        # closed-form branch: (2*100/3)*0.95 + (10 - 200/3) = 20/3
        assert right_spike_density().value_at(0.95) == pytest.approx(20.0 / 3.0, abs=1e-12)

    def test_outside_domain(self):
        with pytest.raises(DomainError):
            Uniform().value_at(1.2)


class TestMeasure:
    def test_uniform(self):
        assert Uniform().measure(0.2, 0.5) == pytest.approx(0.3, abs=1e-15)

    def test_linear_golden_ratio_half(self):
        assert Linear(1.0, 0.5).measure(0.0, GOLDEN) == pytest.approx(0.5, abs=1e-14)

    def test_cubic(self):
        f = BinomialPoly(3.0, 0.0, 2, 0)
        assert f.measure(0.0, 1.0 / math.sqrt(3.0)) == pytest.approx(3.0 ** -1.5, abs=1e-14)

    def test_reversed_interval(self):
        with pytest.raises(DomainError):
            Uniform().measure(0.6, 0.2)


class TestInverseMeasure:
    def test_uniform(self):
        assert Uniform().inverse_measure(0.0, 0.25) == pytest.approx(0.25, abs=1e-15)

    def test_linear_golden(self):
        assert Linear(1.0, 0.5).inverse_measure(0.0, 0.5) == pytest.approx(GOLDEN, abs=1e-12)

    def test_truncation_convention(self):
        assert Uniform().inverse_measure(0.9, 0.5) == 1.0

    def test_negative_tau(self):
        with pytest.raises(DomainError):
            Uniform().inverse_measure(0.0, -0.1)

    def test_leftmost_on_zero_plateau(self):
        # zero middle step: the leftmost point with half the mass is the plateau start
        f = PiecewiseConstant((0.4, 0.6), (1.0, 0.0, 1.0))
        assert f.inverse_measure(0.0, 0.4) == pytest.approx(0.4, abs=1e-12)

    @pytest.mark.parametrize("density", [
        BinomialPoly(2.0, 0.4, 3, 1),
        GaussianRestricted(0.3, 0.25),
        ExponentialRestricted(1.7),
        right_spike_density(),
        Uniform(),
        Linear(-1.0, 1.5),
        PiecewiseLinear((0.3, 0.8), (2.0, 0.0, -1.5), (0.5, 1.1, 2.3)),
        PiecewiseConstant((0.3, 0.6), (2.0, 0.0, 1.0)),
        # zero-mass last segment: at l=ZERO_TAIL_L the whole remainder (frac 1.0)
        # rounds past the total mass
        PiecewiseLinear((0.1709278197011611,), (0.0, 0.0), (4.25242531099244, 0.0)),
    ])
    def test_roundtrip(self, density):
        d = density.normalized()
        for l, frac in ((0.0, 0.5), (0.2, 0.3), (0.7, 0.9), (ZERO_TAIL_L, 1.0)):
            tau = frac * d.measure(l, 1.0)
            y = d.inverse_measure(l, tau)
            assert d.measure(l, y) == pytest.approx(tau, abs=1e-11)

    @pytest.mark.parametrize("tau", [0.05, 0.6])
    def test_bisection_stops_at_adjacent_floats(self, tau):
        # the cut stops once the bracket's endpoints are adjacent doubles: about
        # 55 halvings from [0, 1] for bisection alone, under 20 evaluations of F
        # and f with the Newton stage
        d = BinomialPoly(2.0, 0.4, 3, 1).normalized()
        y, calls = _counted_cut(d, 0.0, tau)
        assert 0 < calls <= 70
        assert (y > 0.5) == (tau > 0.5)  # tau = 0.6 cuts above 0.5, tau = 0.05 below
        assert d.measure(0.0, y) == pytest.approx(tau, abs=1e-15)


class TestNormalize:
    def test_uniform_height_four(self):
        d = Uniform(scale=4.0).normalized()
        assert d.measure(0.0, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert d.value_at(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_linear_two_one(self):
        d = Linear(2.0, 1.0).normalized()
        ref = Linear(1.0, 0.5)
        for x in (0.0, 0.25, 0.9, 1.0):
            assert d.value_at(x) == pytest.approx(ref.value_at(x), abs=1e-14)

    def test_gaussian_total_one_vs_quadrature(self):
        # 60-point Gauss-Legendre on [0, 1]: exact to ~1e-15 for this smooth density
        d = GaussianRestricted(0.5, 0.2).normalized()
        nodes, weights = np.polynomial.legendre.leggauss(60)
        total = 0.5 * sum(w * d.value_at(0.5 * (x + 1.0)) for x, w in zip(nodes, weights))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_zero_total_is_degenerate(self):
        with pytest.raises((DegenerateDensityError, NotFullSupportError)):
            PiecewiseConstant((), (0.0,)).normalized()


class TestBounds:
    def test_uniform(self):
        b = Uniform().bounds()
        assert (b.lower, b.upper, b.lipschitz) == (1.0, 1.0, 1.0)

    def test_linear(self):
        b = Linear(1.0, 0.5).bounds()
        assert (b.lower, b.upper, b.lipschitz) == (0.5, 1.5, 3.0)

    def test_right_spike_bounds(self):
        b = right_spike_density().bounds()
        assert b.lower == pytest.approx(10.0 / 27.0, abs=1e-12)
        assert b.upper == pytest.approx(10.0, abs=1e-12)
        assert b.lipschitz == pytest.approx(27.0, abs=1e-10)

    @pytest.mark.parametrize("lower, upper, lipschitz", [
        (0.0, 2.0, math.inf),  # touches 0
        (0.25, 0.5, 4.0),  # 1/L
        (2.0, 3.0, 3.0),  # U
        (0.5, 4.0, 8.0),  # U/L
    ])
    def test_lipschitz_computed_from_the_two_bounds(self, lower, upper, lipschitz):
        assert DensityBounds(lower, upper).lipschitz == lipschitz

    def test_touching_zero_gives_infinite_lipschitz(self):
        b = BinomialPoly(3.0, 0.0, 2, 0).bounds()
        assert b.lower == 0.0 and math.isinf(b.lipschitz)

    def test_negative_density_rejected(self):
        with pytest.raises(NotFullSupportError):
            Linear(-2.0, 0.5)

    def test_piecewise_linear_rejects_a_segment_end_below_minus_1e_15(self):
        PiecewiseLinear((0.5,), (0.0, 0.0), (1.0, -5e-16))
        with pytest.raises(NotFullSupportError, match=r"^segment 0\.0\*x\+-2e-15 negative on \[0\.5, 1\.0\]$"):
            PiecewiseLinear((0.5,), (0.0, 0.0), (1.0, -2e-15))


class TestParsing:
    def test_round_trip_all_families(self):
        specs = [
            Uniform(),
            Linear(1.0, 0.5),
            BinomialPoly(3.0, 0.2, 2, 0),
            PiecewiseLinear((0.5,), (1.0, -1.0), (0.5, 1.5)),
            PiecewiseConstant((0.3,), (2.0, 0.5)),
            GaussianRestricted(0.4, 0.2),
            ExponentialRestricted(2.0),
        ]
        for spec in specs:
            again = density_from_dict(spec.to_dict())
            for x in (0.0, 0.31, 0.77, 1.0):
                assert again.value_at(x) == pytest.approx(spec.value_at(x), abs=1e-14)

    def test_rational_strings(self):
        d = density_from_dict({"family": "piecewise_constant",
                               "breakpoints": ["1/3"], "heights": ["3/2", "3/4"]})
        assert d.breakpoints[0] == pytest.approx(1.0 / 3.0, abs=1e-16)
        assert d.value_at(0.1) == 1.5

    def test_unknown_family(self):
        with pytest.raises(UnsupportedFamilyError):
            density_from_dict({"family": "cauchy"})

    def test_zero_width_segment_rejected(self):
        with pytest.raises(DegenerateDensityError):
            PiecewiseConstant((0.5, 0.5), (1.0, 1.0, 1.0))


def _arbitrary_density(seed: int):
    import numpy as np

    rng = np.random.default_rng(seed)
    kind = seed % 4
    if kind == 0:
        b = float(rng.uniform(0.1, 2.0))
        return Linear(float(rng.uniform(-0.5 * b, 3.0)), b)
    if kind == 1:
        return GaussianRestricted(float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.1, 0.6)))
    if kind == 2:
        return BinomialPoly(float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.1, 2.0)),
                            int(rng.integers(2, 5)), int(rng.integers(0, 2)))
    return ExponentialRestricted(float(rng.uniform(0.3, 4.0)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000),
       points=st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)))
def test_measure_additive(seed, points):
    d = _arbitrary_density(seed).normalized()
    a, b, c = sorted(points)
    assert d.measure(a, c) == pytest.approx(d.measure(a, b) + d.measure(b, c), abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), l=st.floats(0, 0.99), frac=st.floats(0, 1))
def test_inverse_measure_inverts(seed, l, frac):
    d = _arbitrary_density(seed).normalized()
    tau = frac * d.measure(l, 1.0)
    y = d.inverse_measure(l, tau)
    assert d.measure(l, y) == pytest.approx(tau, abs=1e-12 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_normalize_idempotent(seed):
    d = _arbitrary_density(seed).normalized()
    again = d.normalized()
    assert again.scale == pytest.approx(d.scale, rel=1e-12)
    assert type(again) is type(d)


def test_lipschitz_sampling():
    # Component-wise form (one endpoint varies), which is what the bound
    # max{1/L, U, U/L} actually delivers, plus the 1-norm consequence when
    # both endpoints move.
    import numpy as np

    rng = np.random.default_rng(7)
    for seed in range(6):
        d = _arbitrary_density(seed).normalized()
        lam = d.bounds().lipschitz
        if math.isinf(lam):
            continue
        pts = np.sort(rng.uniform(0.0, 1.0, size=(10_000, 4)), axis=1)
        for p1, p2, p3, p4 in pts:
            assert abs(d.measure(p1, p4) - d.measure(p2, p4)) <= lam * (p2 - p1) + 1e-9
            assert abs(d.measure(p1, p3) - d.measure(p1, p4)) <= lam * (p4 - p3) + 1e-9
            lhs = abs(d.measure(p1, p3) - d.measure(p2, p4))
            assert lhs <= lam * ((p2 - p1) + (p4 - p3)) + 1e-9


# -- non-finite parameters ---------------------------------------------------

NONFINITE = (math.nan, math.inf, -math.inf)

#: one constructor per family and parameter, for the non-finite table
PARAMETER_SLOTS = {
    "uniform.scale": lambda x: Uniform(scale=x),
    "linear.a": lambda x: Linear(x, 1.0),
    "linear.b": lambda x: Linear(0.5, x),
    "linear.scale": lambda x: Linear(0.5, 1.0, scale=x),
    "binomial.a": lambda x: BinomialPoly(x, 1.0, 2, 0),
    "binomial.b": lambda x: BinomialPoly(1.0, x, 2, 0),
    "binomial.scale": lambda x: BinomialPoly(1.0, 1.0, 2, 0, scale=x),
    "piecewise_linear.breakpoint": lambda x: PiecewiseLinear((x,), (0.0, 0.0), (1.0, 1.0)),
    "piecewise_linear.slope": lambda x: PiecewiseLinear((0.5,), (x, 0.0), (1.0, 1.0)),
    "piecewise_linear.intercept": lambda x: PiecewiseLinear((0.5,), (0.0, 0.0), (1.0, x)),
    "piecewise_linear.scale": lambda x: PiecewiseLinear((0.5,), (0.0, 0.0), (1.0, 1.0), scale=x),
    "piecewise_constant.breakpoint": lambda x: PiecewiseConstant((x,), (1.0, 1.0)),
    "piecewise_constant.height": lambda x: PiecewiseConstant((0.5,), (1.0, x)),
    "piecewise_constant.scale": lambda x: PiecewiseConstant((0.5,), (1.0, 1.0), scale=x),
    "gaussian.mu": lambda x: GaussianRestricted(x, 0.2),
    "gaussian.sigma": lambda x: GaussianRestricted(0.5, x),
    "gaussian.scale": lambda x: GaussianRestricted(0.5, 0.2, scale=x),
    "exponential.rate": lambda x: ExponentialRestricted(x),
    "exponential.scale": lambda x: ExponentialRestricted(1.5, scale=x),
}


@pytest.mark.parametrize("slot", sorted(PARAMETER_SLOTS))
@pytest.mark.parametrize("value", NONFINITE, ids=("nan", "inf", "-inf"))
def test_nonfinite_parameter_rejected(slot, value):
    with pytest.raises(DomainError):
        PARAMETER_SLOTS[slot](value)


@pytest.mark.parametrize("slot", sorted(k for k in PARAMETER_SLOTS if k.endswith(".scale")))
@pytest.mark.parametrize("value", (0.0, -1.0))
def test_nonpositive_scale_is_degenerate(slot, value):
    with pytest.raises(DegenerateDensityError, match="scale must be positive"):
        PARAMETER_SLOTS[slot](value)


# -- the cut path against the reference cut -----------------------------------


def _reference_linear_root(half_slope, intercept, rhs, lo, hi):
    """Both roots scanned in order, the first one closest to [lo, hi] kept; the first
    root is rationalized where its textbook form loses 10 bits or more."""
    if half_slope == 0.0:
        return rhs / intercept
    disc = math.sqrt(max(intercept * intercept + 4.0 * half_slope * rhs, 0.0))
    first = (-intercept + disc) / (2.0 * half_slope)
    if intercept > 0.0 and abs(4.0 * half_slope * rhs) < intercept * intercept / 1024.0:
        first = 2.0 * rhs / (intercept + disc)
    roots = (first, (-intercept - disc) / (2.0 * half_slope))
    best, best_err = None, math.inf
    for r in roots:
        err = max(lo - r, r - hi, 0.0)
        if err < best_err:
            best, best_err = r, err
    return min(max(best, lo), hi)


def _reference_unscaled(d, l, target):
    """Each family's cut before F(l) was shared: F(l) and F(1) recomputed, nothing cached."""
    if isinstance(d, PiecewiseConstant):
        d = PiecewiseLinear(d.breakpoints, (0.0,) * len(d.heights), d.heights, scale=d.scale)
    if isinstance(d, Uniform):
        return l + target
    if isinstance(d, Linear):
        return _reference_linear_root(0.5 * d.a, d.b, target + d._cumulative(l), l, 1.0)
    if isinstance(d, GaussianRestricted):
        def cdf(x):
            z = (x - d.mu) / d.sigma
            return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))

        p = cdf(l) + target
        if p >= cdf(1.0):
            return 1.0
        return NormalDist(d.mu, d.sigma).inv_cdf(p)
    if isinstance(d, ExponentialRestricted):
        u = target * math.exp(d.rate * l)
        return 1.0 if u >= 1.0 else l - math.log1p(-u) / d.rate
    if isinstance(d, PiecewiseLinear):
        goal = d._cumulative(l) + target
        knots = (0.0, *d.breakpoints, 1.0)
        for j in range(d._segment(l), len(d.slopes)):
            start = max(knots[j], l)
            f_start = d._cumulative(start)
            if goal <= f_start or f_start >= d._cum[-1]:
                return start
            if goal <= d._cum[j + 1] or j == len(d.slopes) - 1:
                s, c = d.slopes[j], d.intercepts[j]
                if s == 0.0:
                    return start + (goal - f_start) / c
                rhs = goal - f_start + 0.5 * s * start * start + c * start
                return _reference_linear_root(0.5 * s, c, rhs, start, knots[j + 1])
        return 1.0
    return _plain_bisection(d, l, target)[0]  # BinomialPoly


def _plain_bisection(d, l, target):
    """Bisection of (l, 1) on F(mid) - F(l) < target to adjacent doubles: (cut, evaluations of F)."""
    lo, hi = l, 1.0
    base, calls = d._cumulative(l), 1
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return hi, calls
        calls += 1
        if d._cumulative(mid) - base < target:
            lo = mid
        else:
            hi = mid


def reference_inverse_measure(d, l, tau):
    """The cut as first written: truncation tested with measure(l, 1), F(l) recomputed."""
    if tau == 0.0:
        return l
    if d.measure(l, 1.0) < tau:
        return 1.0
    return min(max(_reference_unscaled(d, l, tau / d.scale), l), 1.0)


#: every family, with zero-height steps, a zero-mass tail and unnormalised scales
CUT_FAMILIES = {
    "uniform": Uniform(scale=2.5),
    "linear_rising": Linear(2.0, 0.5).normalized(),
    "linear_falling": Linear(-1.0, 1.5, scale=0.7),
    "linear_flat": Linear(0.0, 1.0),
    "binomial": BinomialPoly(2.0, 0.4, 3, 1).normalized(),
    "binomial_touching_zero": BinomialPoly(3.0, 0.0, 2, 0),
    "binomial_s8_t1": BinomialPoly(1.5, 0.5, 8, 1).normalized(),
    "binomial_s8_t7": BinomialPoly(0.7, 2.0, 8, 7, scale=3.0),
    "binomial_a_zero": BinomialPoly(0.0, 1.3, 5, 2),
    "binomial_b_zero_s8": BinomialPoly(2.0, 0.0, 8, 3).normalized(),
    # a < 0: F's rounding is not monotone, and these cuts keep the plain bisection
    "binomial_mixed_sign": BinomialPoly(-0.5, 1.0, 2, 0).normalized(),
    "binomial_mixed_sign_touching_zero": BinomialPoly(-2.0, 2.0, 6, 1),
    "piecewise_linear": PiecewiseLinear((0.3, 0.8), (2.0, 0.0, -1.5), (0.5, 1.1, 2.3)).normalized(),
    "piecewise_linear_zero_tail": PiecewiseLinear((0.1709278197011611,), (0.0, 0.0),
                                                  (4.25242531099244, 0.0)),
    "piecewise_linear_spike": right_spike_density(),
    "piecewise_constant_zero_step": PiecewiseConstant((0.4, 0.6), (1.0, 0.0, 1.0)),
    "piecewise_constant_zero_steps": PiecewiseConstant((0.2, 0.5, 0.7), (0.0, 3.0, 0.0, 0.5),
                                                       scale=1.3),
    "gaussian": GaussianRestricted(0.3, 0.25).normalized(),
    "gaussian_narrow": GaussianRestricted(0.5, 0.1, scale=0.4),
    "exponential": ExponentialRestricted(1.7).normalized(),
}

NEAR_ONE = (1.0 - 1e-9, 1.0 - 1e-13, math.nextafter(1.0, 0.0), 1.0)


def _cut_grid(d, seed):
    """Seeded (l, tau) pairs: random, plus tau = 0, above the rest, exactly the rest, near 1.

    At l = 0, tau = 5e-324 cuts far below 2**-147 on densities that touch zero
    there, and still ends at the leftmost double (``test_tiny_cut_is_leftmost_double``).
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    ls = [0.0, 0.2, 0.4, 0.5, 0.6, ZERO_TAIL_L, *NEAR_ONE, *(float(x) for x in rng.uniform(0, 1, 40))]
    for l in ls:
        rest = d.measure(l, 1.0)
        taus = [0.0, 5e-324, 1e-12, rest, rest * (1.0 + 1e-15), rest + 1e-9, 2.0 * d.scale + 1.0,
                *(float(f) * rest for f in rng.uniform(0, 1, 12))]
        for tau in taus:
            yield l, tau


#: far in a Gaussian tail F(x) rounds to its last digits, so only bit identity is tested there
FAR_TAIL = {"gaussian_far_tail": GaussianRestricted(0.9, 0.05, scale=0.4)}


@pytest.mark.parametrize("name", sorted({**CUT_FAMILIES, **FAR_TAIL}))
def test_cut_matches_reference_bit_for_bit(name):
    d = {**CUT_FAMILIES, **FAR_TAIL}[name]
    for l, tau in _cut_grid(d, seed=len(name)):
        assert d.inverse_measure(l, tau) == reference_inverse_measure(d, l, tau), (l, tau)


@pytest.mark.parametrize("name", sorted(CUT_FAMILIES))
def test_cut_is_leftmost_and_truncates_to_one(name):
    d = CUT_FAMILIES[name]
    for l, tau in _cut_grid(d, seed=100 + len(name)):
        y = d.inverse_measure(l, tau)
        rest = d.measure(l, 1.0)
        if tau > rest:
            assert y == 1.0, (l, tau)
            continue
        assert l <= y <= 1.0
        assert d.measure(l, y) == pytest.approx(tau, abs=1e-12)
        if y - 1e-9 >= l:
            # leftmost: a point 1e-9 to the left is short of tau, also at the start
            # of a zero-height step or a zero-mass tail
            assert d.measure(l, y - 1e-9) < tau, (l, tau, y)


def test_cut_stops_at_start_of_zero_steps():
    d = CUT_FAMILIES["piecewise_constant_zero_steps"]
    assert d.inverse_measure(0.0, d.measure(0.0, 0.5)) == 0.5
    assert d.inverse_measure(0.1, d.measure(0.0, 0.5)) == 0.5
    tail = CUT_FAMILIES["piecewise_linear_zero_tail"]
    assert tail.inverse_measure(0.0, tail.measure(0.0, 1.0)) == pytest.approx(0.1709278197011611,
                                                                              abs=1e-15)


@pytest.mark.parametrize("name", sorted(CUT_FAMILIES))
def test_queries_write_no_attributes(name):
    # derived constants are fixed at construction; a lazy write would slow every later call
    d = replace(CUT_FAMILIES[name])
    keys = list(vars(d))
    d.measure(0.1, 0.7)
    d.inverse_measure(0.2, 0.1 * d.measure(0.2, 1.0))
    d.inverse_measure(0.95, 10.0)
    d.value_at(0.3)
    assert list(vars(d)) == keys


def test_segment_lookup_matches_knot_walk():
    # _segment bisects the breakpoints alone; the knot walk it replaced clipped x = 1 to the last segment
    rng = np.random.default_rng(11)
    for d in (CUT_FAMILIES["piecewise_linear"], CUT_FAMILIES["piecewise_linear_spike"],
              PiecewiseLinear((), (1.0,), (0.5,)),
              PiecewiseLinear(tuple(np.sort(rng.uniform(0.0, 1.0, 40))), (0.0,) * 41, (1.0,) * 41)):
        knots = (0.0, *d.breakpoints, 1.0)
        points = [*knots, *np.nextafter(knots, 0.0), *np.nextafter(knots, 1.0), *rng.uniform(0.0, 1.0, 500)]
        for x in (float(x) for x in points if 0.0 <= x <= 1.0):
            assert d._segment(x) == min(bisect_right(knots, x) - 1, len(d.slopes) - 1)


@pytest.mark.parametrize("name", sorted(CUT_FAMILIES))
def test_normalized_equals_replace(name):
    # normalized copies the derived constants instead of running __post_init__ again
    d = replace(CUT_FAMILIES[name])
    n = d.normalized()
    assert type(n) is type(d)
    assert vars(n) == vars(replace(d, scale=n.scale))


def _zero_slope(step: PiecewiseConstant) -> PiecewiseLinear:
    return PiecewiseLinear(step.breakpoints, (0.0,) * len(step.heights), step.heights, scale=step.scale)


def _outcome(run, inst):
    """repr of a driver's result (it keeps every bit of a float) and its ledger, or its error."""
    ledger = QueryLedger()
    try:
        result = repr(run(inst, ledger))
    except FairsliceError as exc:
        result = (type(exc), str(exc))
    return result, ledger.as_dict()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_step_densities_run_the_piecewise_linear_kernels(n):
    # a step density is the zero-slope PiecewiseLinear with its heights as
    # intercepts: the same tables, and the same cuts, pieces, values and
    # ledgers in every driver
    rng = np.random.default_rng(n)
    drivers = (lambda inst, ledger: envy_free(inst, 1e-4, ledger),
               lambda inst, ledger: pl_ef(inst, 1e-2, ledger),
               lambda inst, ledger: max_nash(inst, 0.05, ledger))
    for _ in range(3):
        steps = perturb(op_intervals(n, rng), 0.1)
        linear = Instance.from_densities([_zero_slope(d) for d in steps.agents], normalize=False)
        for step, line in zip(steps.agents, linear.agents):
            assert as_piecewise_linear(step) is step
            for name in ("slopes", "intercepts", *PiecewiseLinear._derived):
                assert repr(getattr(step, name)) == repr(getattr(line, name)), name
        assert repr(steps.bounds) == repr(linear.bounds)
        for run in drivers:
            assert _outcome(run, steps) == _outcome(run, linear)


@pytest.mark.parametrize("density", [Linear(0.0, 1e-310), PiecewiseConstant((0.5,), (1e-310, 0.0))])
def test_normalized_scale_overflow_raises(density):
    with pytest.raises(DomainError, match="scale inf is not finite"):
        density.normalized()


def test_tiny_cut_is_leftmost_double():
    # 589 halvings from [0, 1]: the bisection runs until its ends are adjacent doubles
    d = BinomialPoly(2.0, 0.4, 3, 1).normalized()
    y = d.inverse_measure(0.0, 5e-324)
    assert y == 4.158400847013625e-162
    assert d.measure(0.0, y) >= 5e-324 > d.measure(0.0, math.nextafter(y, 0.0))


def _worst_cut_error(d) -> float:
    """Largest |measure(l, y) - tau| over a grid of cuts, in ulps of 1.0."""
    worst = 0.0
    for l in (0.0, 0.1, 0.25, 0.3, 0.5, 0.7, 0.9, 0.999):
        rest = d.measure(l, 1.0)
        for frac in (1e-6, 0.01, 0.3, 0.5, 0.77, 0.9, 0.999999):
            y = d.inverse_measure(l, rest * frac)
            worst = max(worst, abs(d.measure(l, y) - rest * frac) / math.ulp(1.0))
    return worst


@pytest.mark.parametrize("slope", [10.0 ** -e for e in range(4, 16)])
def test_near_flat_linear_cut_is_exact(slope):
    # where 4|h c| < b^2 2^-10 the textbook root loses 10 bits or more to cancellation
    # (4.4e-5 at slope 1e-12); the rationalized root keeps the cut within a few ulps
    for a in (slope, -slope):
        assert _worst_cut_error(Linear(a, 1.0).normalized()) <= 4.0, a
        flat = PiecewiseLinear((0.3, 0.7), (a, -a, 2.0 * a), (1.0, 1.0 + 0.6 * a, 1.0 - 0.8 * a))
        assert _worst_cut_error(flat.normalized()) <= 4.0, a


def test_cut_at_the_rationalized_root_threshold():
    # slope 1e-3: cuts past 4|h c| = b^2 2^-10 keep the textbook root and its loss
    # of at most about 11 bits, which leaves the max_nash and ledger pins bit-identical
    for a in (1e-3, -1e-3):
        assert _worst_cut_error(Linear(a, 1.0).normalized()) <= 2.0 ** 11


@pytest.mark.parametrize("depth", range(13, 53, 3))
def test_near_flat_restricted_segment_cut_is_exact(depth):
    # PL-EF's halves at depth d restrict a linear density to 2^-d of the cake, a segment
    # whose slope is about 2^-d of its intercept
    for a, b in ((2.0, 1.0), (-0.9, 1.0)):
        for lo in (0.0, 0.5, 0.75):
            d = restrict_unit(as_piecewise_linear(Linear(a, b)), lo, lo + 2.0 ** -depth)
            assert _worst_cut_error(d) <= 4.0, (a, lo)


def test_binomial_cut_newton_stage_saves_evaluations():
    # Newton narrows the bracket before the bisection finishes it: about 7
    # evaluations of F per cut instead of about 55, with the same doubles.  A
    # Newton stage that converges or slows from one side steps past the root,
    # doubling the step until the test flips, so no cut bisects from l again
    # (a single nudge left 38 of these cuts at 41-58 evaluations).  The bounds
    # count F and f together, as _counted_cut does: the mean is 11.47 (about 7
    # of F and 4.5 of f) and the maximum 17
    rng = np.random.default_rng(7)
    costs = []
    for t in range(600):
        for agent in binomial_instance(2 + t % 8, rng).agents:
            for _ in range(3):
                l = float(rng.uniform(0.0, 1.0))
                tau = float(rng.uniform(0.0, 1.0)) * agent.measure(l, 1.0)
                y, calls = _counted_cut(agent, l, tau)
                costs.append(calls)
                if t % 10 == 0:
                    assert y == reference_inverse_measure(agent, l, tau)
    assert len(costs) == 9900
    assert max(costs) <= 17
    assert sum(costs) / len(costs) <= 11.48


NEWTON_BINOMIALS = ((3.0, 0.0, 2, 0), (2.0, 0.4, 3, 1), (1.5, 0.5, 8, 1), (2.0, 0.0, 8, 3))


def _newton_stage_cuts():
    """(density, l, tau): remaining-mass cuts, tiny cuts from 0, random cuts and a creeping one."""
    rng = np.random.default_rng(13)
    for shape in NEWTON_BINOMIALS:
        d = BinomialPoly(*shape).normalized()
        for l in (0.0, *(float(x) for x in rng.uniform(0.0, 1.0, 19))):
            yield d, l, d.measure(l, 1.0)
            yield d, l, float(rng.uniform(0.0, 1.0)) * d.measure(l, 1.0)
        yield d, 0.0, 1e-25
        yield d, 0.0, 1e-40
    # F underflows near the root, so F(x) - F(0) equals the target on a run of
    # doubles and Newton's step there is 0: the doubled nudge must end the stage
    yield BinomialPoly(1.08819491548366, 0.0, 1, 0).normalized(), 0.0, 1.391e-320


class _CountingCoefficient(float):
    """A coefficient ``a`` that counts its products and leaves them as they were.

    Every evaluation of F or f multiplies ``a`` once, also inside the cut
    kernel, which evaluates them inline rather than through ``_cumulative``
    and ``_density``.
    """

    calls = 0

    def __mul__(self, other):
        _CountingCoefficient.calls += 1
        return float(self) * other


def _counted_cut(d, l, tau):
    """(d.inverse_measure(l, tau), evaluations of F and f it took)."""
    counting = BinomialPoly(_CountingCoefficient(d.a), d.b, d.s, d.t, scale=d.scale)
    _CountingCoefficient.calls = 0
    return counting.inverse_measure(l, tau), _CountingCoefficient.calls


def test_counted_cut_sees_every_evaluation():
    # a density with a < 0 keeps the plain bisection: the count is its F(l) and
    # every midpoint, so a count that missed the kernel's evaluations would fail
    d = BinomialPoly(-0.5, 1.0, 2, 0).normalized()
    for l, frac in ((0.0, 0.5), (0.3, 0.01), (0.8, 0.9)):
        tau = frac * d.measure(l, 1.0)
        plain, plain_calls = _plain_bisection(d, l, tau / d.scale)
        assert _counted_cut(d, l, tau) == (plain, plain_calls)
        assert plain_calls > 50


def test_binomial_cut_costs_at_most_the_plain_bisection_plus_8():
    # Newton hands over to the bisection once its steps stop halving, so a cut
    # where Newton is slow costs little more than bisecting from (l, 1)
    for d, l, tau in _newton_stage_cuts():
        plain, plain_calls = _plain_bisection(d, l, tau / d.scale)
        y, calls = _counted_cut(d, l, tau)
        assert y == plain, (d, l, tau)
        assert calls <= plain_calls + 8, (d, l, tau, calls, plain_calls)


def test_binomial_remaining_mass_cut_starts_newton_inside_the_bracket():
    # a cut of exactly the remaining mass puts the chord root at 1.0, the bracket's
    # right end; starting Newton there skipped it and bisected all of (l, 1), 52.5
    # F+f evaluations on average (max 54) over these 80 cuts.  From the double
    # below 1.0 each costs F(l), F and f once
    costs = []
    for d, l, tau in _newton_stage_cuts():
        if tau == d.measure(l, 1.0):
            y, calls = _counted_cut(d, l, tau)
            assert y == _plain_bisection(d, l, tau / d.scale)[0], (d, l, tau)
            costs.append(calls)
    assert len(costs) == 80
    assert costs == [3] * 80


def test_binomial_slow_newton_cut_costs_no_more_than_bisection():
    # Newton converges linearly from the right (steps 0.103, then 0.084): ending the
    # stage there closed a wide bracket, 62 F+f evaluations against the plain
    # bisection's 54.  The power-law step lands near the root 0.699 instead
    d = BinomialPoly(3.8223640231155613, 0.0, 8, 2, scale=2.354563810660873)
    l, tau = 0.07525620998358462, 0.03973518659912339
    plain, plain_calls = _plain_bisection(d, l, tau / d.scale)
    y, calls = _counted_cut(d, l, tau)
    assert y == plain
    assert calls <= plain_calls
    assert calls == 12


def test_binomial_newton_step_out_of_bracket_bisects_once():
    # the second Newton step lands at 1.005, past the bracket; a midpoint step
    # and more Newton follow (ending the stage there bisected (0.697, 1): 54)
    d = BinomialPoly(1.264595376033435, 0.0, 3, 0, scale=3.1630670772706058)
    l, tau = 0.12499787685547115, 0.6538962771821724
    y, calls = _counted_cut(d, l, tau)
    assert y == _plain_bisection(d, l, tau / d.scale)[0]
    assert calls <= 16


def test_binomial_random_shape_cuts_match_bisection():
    # shapes with s up to 8 and b = 0 half the time, where Newton steps often
    # leave the bracket; a stage that ended there averaged about 22 evaluations.
    # Without the power-law step the mean was 13.79 and the maximum 62
    rng = np.random.default_rng(5)
    costs = []
    for _ in range(4000):
        s = int(rng.integers(1, 9))
        t = int(rng.integers(0, s))
        a = float(rng.uniform(0.05, 4.0))
        b = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.05, 4.0))
        d = BinomialPoly(a, b, s, t).normalized()
        l = float(rng.uniform(0.0, 1.0))
        tau = float(rng.uniform(0.0, 1.0)) * d.measure(l, 1.0)
        if tau > 0.0:
            y, calls = _counted_cut(d, l, tau)
            assert y == _plain_bisection(d, l, tau / d.scale)[0], (d, l, tau)
            costs.append(calls)
    assert sum(costs) / len(costs) <= 13.2
    assert max(costs) <= 21


@pytest.mark.parametrize("tau", [1e-14, 1e-20, 1e-100, 1e-300])
def test_exponential_tiny_cut_from_zero_is_leftmost(tau):
    # F = -expm1(-rate x) and a cut through log1p keep their relative precision
    # near 0 (with 1 - exp and log, a cut of 1e-14 was worth 9.876e-15)
    d = ExponentialRestricted(0.5).normalized()
    y = d.inverse_measure(0.0, tau)
    assert abs(d.measure(0.0, y) - tau) <= 2 * math.ulp(tau)
    assert d.measure(0.0, math.nextafter(y, 0.0)) < tau


@pytest.mark.xfail(strict=True, reason="F = 0.5 * (1 + erf(z / sqrt 2)) cancels in the left "
                                       "tail, so the cut lands right of the leftmost point "
                                       "(ROADMAP item 4)")
def test_gaussian_left_tail_cut_is_leftmost():
    d = GaussianRestricted(0.9, 0.05, scale=0.4)
    tau = 1e-12
    y = d.inverse_measure(0.0, tau)
    assert d.measure(0.0, y - 1e-9) < tau
