import math

import pytest
from hypothesis import given, settings, strategies as st

from fairslice import (
    BinomialPoly,
    ExponentialRestricted,
    GaussianRestricted,
    Linear,
    PiecewiseConstant,
    PiecewiseLinear,
    Uniform,
    density_from_dict,
)
from fairslice.errors import (
    DegenerateDensityError,
    DomainError,
    NotFullSupportError,
    UnsupportedFamilyError,
)

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
        # bisection stops once the bracket's endpoints are adjacent doubles, about
        # 55 halvings from [0, 1], well before the 200-step cap
        class Counting(BinomialPoly):
            calls = 0

            def _cumulative(self, x):
                Counting.calls += 1
                return super()._cumulative(x)

        d = Counting(2.0, 0.4, 3, 1).normalized()
        Counting.calls = 0
        y = d.inverse_measure(0.0, tau)
        assert Counting.calls <= 70
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
        from scipy.integrate import quad

        d = GaussianRestricted(0.5, 0.2).normalized()
        total, err = quad(d.value_at, 0.0, 1.0, limit=200)
        assert total == pytest.approx(1.0, abs=max(1e-10, 10 * err))

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

    def test_touching_zero_gives_infinite_lipschitz(self):
        b = BinomialPoly(3.0, 0.0, 2, 0).bounds()
        assert b.lower == 0.0 and math.isinf(b.lipschitz)

    def test_negative_density_rejected(self):
        with pytest.raises(NotFullSupportError):
            Linear(-2.0, 0.5)


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
