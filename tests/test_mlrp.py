import math

import numpy as np
import pytest

from fairslice import (
    BinomialPoly,
    ExponentialRestricted,
    GaussianRestricted,
    Instance,
    IntervalInstance,
    Linear,
    PiecewiseConstant,
    PiecewiseLinear,
    QueryLedger,
    Uniform,
    check_binomial_pair,
    check_fosd,
    check_gaussian_pair,
    check_pair_grid,
    check_ratio_properties,
    detect_order,
    envy_free,
    envy_matrix,
    perturb,
    perturbation_density,
    verify_instance,
)
from fairslice.errors import DomainError, NotFullSupportError, OrderingError
from fairslice.mlrp import _GRID_BLOCK, DEFAULT_GRID, RATIO_SLACK, perturbation_height_factor
from gen import mlrp_instance, op_intervals

QUAD = BinomialPoly(3.0, 0.0, 2, 0)  # f(x) = 3x^2


def two_step_pair(alpha):
    f1 = PiecewiseConstant((1.0 - alpha,), (1.0 + alpha, alpha))
    f2 = PiecewiseConstant((1.0 - alpha,), (1.0 - alpha, 2.0 - alpha))
    return f1, f2


class TestDetectOrder:
    def test_gaussian_trio(self):
        inst = Instance.from_densities(
            [GaussianRestricted(m, 0.2) for m in (0.8, 0.2, 0.5)])
        led = QueryLedger()
        assert detect_order(inst, led) == [1, 2, 0]
        assert led.eval_count == 3 and led.cut_count == 0

    def test_identical_stable(self):
        inst = Instance.from_densities([Uniform(), Uniform(), Uniform()])
        assert detect_order(inst, QueryLedger()) == [0, 1, 2]

    def test_uniform_vs_quadratic(self):
        inst = Instance.from_densities([Uniform(), QUAD])
        assert detect_order(inst, QueryLedger()) == [0, 1]  # 1/2 < 7/8

    def test_fosd_along_detected_order(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            means = rng.uniform(0.1, 0.9, 3)
            inst = Instance.from_densities([GaussianRestricted(float(m), 0.22) for m in means])
            order = detect_order(inst, QueryLedger())
            for a, b in zip(order, order[1:]):
                assert check_fosd(inst.agents[a], inst.agents[b], 256)


class TestPairGrid:
    def test_increasing_linear_ratio(self):
        assert check_pair_grid(Uniform(), Linear(2.0, 0.01).normalized())[0]

    def test_decreasing_with_witness(self):
        ok, witness = check_pair_grid(QUAD, Uniform(), 512)
        assert not ok
        x1, x2 = witness
        assert x1 < x2

    def test_two_step_pair(self):
        f1, f2 = two_step_pair(0.5)
        assert check_pair_grid(f1, f2)[0]

    def test_grid_too_small(self):
        with pytest.raises(DomainError):
            check_pair_grid(Uniform(), Uniform(), 1)


def reference_check_pair_grid(f_i, f_j, m=DEFAULT_GRID, slack=RATIO_SLACK):
    """The scalar loop ``check_pair_grid`` replaced: two ``value_at`` calls per grid point."""
    if m < 2:
        raise DomainError(f"grid size m={m} must be at least 2")
    prev_ratio, prev_x = None, 0.0
    for k in range(m):
        x = k / (m - 1)
        num, den = f_j.value_at(x), f_i.value_at(x)
        if num < 0.0 or den < 0.0 or (num == 0.0 and den == 0.0):
            raise NotFullSupportError(f"degenerate density values at x={x}")
        ratio = math.inf if den == 0.0 else num / den
        if prev_ratio is not None and ratio < prev_ratio - slack:
            return False, (prev_x, x)
        if prev_ratio is None or ratio > prev_ratio:
            prev_ratio, prev_x = ratio, x
    return True, None


def grid_outcome(check, f_i, f_j, m):
    """(ok, witness), or the type and message of the error the check raised."""
    try:
        return check(f_i, f_j, m)
    except NotFullSupportError as exc:
        return type(exc), str(exc)


def random_density(rng, family):
    if family == "uniform":
        return Uniform(scale=float(rng.uniform(0.5, 2.0)))
    if family == "linear":
        b = float(rng.uniform(0.1, 2.0))
        return Linear(float(rng.uniform(-b, 3.0)), b)
    if family == "binomial":
        s = int(rng.integers(1, 6))
        return BinomialPoly(float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.05, 2.0)),
                            s, int(rng.integers(0, s)))
    if family in ("piecewise_linear", "piecewise_constant"):
        k = int(rng.integers(0, 5))
        brk = tuple(float(p) for p in np.sort(rng.uniform(0.02, 0.98, k)))
        heights = tuple(float(h) for h in rng.uniform(0.1, 2.0, k + 1))
        if family == "piecewise_constant":
            return PiecewiseConstant(brk, heights)
        slopes = tuple(float(v) for v in rng.uniform(-0.1, 2.0, k + 1))
        return PiecewiseLinear(brk, slopes, heights)
    if family == "gaussian":
        return GaussianRestricted(float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.05, 0.6)))
    return ExponentialRestricted(float(rng.uniform(0.1, 5.0)))


FAMILIES = ("uniform", "linear", "binomial", "piecewise_linear", "piecewise_constant",
            "gaussian", "exponential")
#: Families whose array kernel uses the same operations as value_at, so the same doubles.
EXACT_KERNELS = ("uniform", "linear", "piecewise_linear", "piecewise_constant")


class TestGridOracle:
    """check_pair_grid against the scalar loop: the same verdict, witness and error."""

    def assert_same(self, f_i, f_j, m):
        expected = grid_outcome(reference_check_pair_grid, f_i, f_j, m)
        assert grid_outcome(check_pair_grid, f_i, f_j, m) == expected
        return expected

    @pytest.mark.parametrize("family", FAMILIES)
    def test_seeded_pairs(self, family):
        rng = np.random.default_rng(sum(map(ord, family)))
        for _ in range(12):
            f_i = random_density(rng, family).normalized()
            f_j = random_density(rng, FAMILIES[int(rng.integers(len(FAMILIES)))]).normalized()
            for m in (2, 3, 257, DEFAULT_GRID):
                self.assert_same(f_i, f_j, m)
                self.assert_same(f_j, f_i, m)

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_mlrp_instances(self, seed):
        # the adjacent pairs verify_instance checks on generated MLRP instances
        inst = mlrp_instance(5, np.random.default_rng(seed))
        for f_i, f_j in zip(inst.agents, inst.agents[1:]):
            assert self.assert_same(f_i, f_j, DEFAULT_GRID) == (True, None)
            assert self.assert_same(f_j, f_i, DEFAULT_GRID)[0] is False

    @pytest.mark.parametrize("m", [2, 3, 512, DEFAULT_GRID])
    def test_mlrp_and_violating_pairs(self, m):
        assert self.assert_same(Uniform(), QUAD, m) == (True, None)
        assert self.assert_same(QUAD, Uniform(), m)[0] is False

    @pytest.mark.parametrize("m", [2, 3, 1000])
    def test_infinite_ratios(self, m):
        rising = Linear(2.0, 0.0)  # zero at x = 0: an infinite first ratio
        gap = PiecewiseConstant((0.3, 0.6), (1.0, 0.0, 2.0))  # zero in the middle
        for f_i, f_j in ((rising, Uniform()), (Uniform(), rising), (gap, Uniform()),
                         (Uniform(), gap), (gap, rising), (rising, gap)):
            self.assert_same(f_i, f_j, m)
        assert self.assert_same(rising, Uniform(), m) == (False, (0.0, 1.0 / (m - 1)))

    def test_zero_over_zero_before_and_after_a_violation(self):
        # both densities vanish at x = 0, before anything can decrease
        before = self.assert_same(Linear(2.0, 0.0), QUAD, 101)
        assert before == (NotFullSupportError, "degenerate density values at x=0.0")
        # the ratio falls from 2 to 1 at x = 0.25; both vanish from x = 0.5 on
        f_i = PiecewiseConstant((0.5,), (1.0, 0.0))
        f_j = PiecewiseConstant((0.25, 0.5), (2.0, 1.0, 0.0))
        assert self.assert_same(f_i, f_j, 101) == (False, (0.0, 0.25))
        # a negative value that is also the first decrease: the error wins
        dipping = PiecewiseLinear((0.5,), (0.0, 0.0), (1.0, -1e-16))
        assert self.assert_same(Uniform(), dipping, 5) == (
            NotFullSupportError, "degenerate density values at x=0.5")

    def test_undefined_ratios_follow_the_loop(self):
        # raw densities whose values overflow to inf: inf/inf is NaN, which the loop
        # skips, or keeps as its maximum when it comes first
        steep = Linear(1e308, 1e308)  # inf at x = 1 only
        assert self.assert_same(steep, steep, 11) == (True, None)
        everywhere = Linear(0.0, 1e308, scale=10.0)  # inf at every point
        first = PiecewiseConstant((0.5,), (1e308, 1.0), scale=10.0)  # inf, then 10
        assert self.assert_same(everywhere, first, 11) == (True, None)
        assert self.assert_same(first, everywhere, 11) == (True, None)
        # ratios NaN, 2, 1: the first NaN stays the maximum, and nothing falls below it
        f_i = PiecewiseConstant((0.25,), (1e308, 1.0), scale=10.0)
        f_j = PiecewiseConstant((0.25, 0.5), (1e308, 2.0, 1.0), scale=10.0)
        assert self.assert_same(f_i, f_j, 11) == (True, None)
        # ratios 1, NaN, 0.5: a later NaN is skipped, and 0.5 falls below 1
        f_i = PiecewiseConstant((0.3, 0.6), (1.0, 1e308, 1.0), scale=10.0)
        f_j = PiecewiseConstant((0.3, 0.6), (1.0, 1e308, 0.5), scale=10.0)
        assert self.assert_same(f_i, f_j, 11) == (False, (0.0, 0.6))

    def test_witness_straddles_a_block_boundary(self):
        m = _GRID_BLOCK + 1
        last = (m - 2) / (m - 1)  # the last point of the first block
        # the ratio rises up to the first block's last point, then drops at x = 1
        f_j = PiecewiseLinear((0.5 * (last + 1.0),), (1.0, 0.0), (1.0, 0.1))
        assert self.assert_same(Uniform(), f_j, m) == (False, (last, 1.0))
        # a plateau from x = 0 carries its first x across the boundary
        f_j = PiecewiseConstant((0.5 * (last + 1.0),), (1.0, 0.5))
        assert self.assert_same(Uniform(), f_j, m) == (False, (0.0, 1.0))
        # the maximum in the second block, the drop after it
        m = 2 * _GRID_BLOCK + 1
        top = (_GRID_BLOCK + 7) / (m - 1)
        f_j = PiecewiseLinear((top + 0.5 / (m - 1),), (1.0, 0.0), (1.0, 0.1))
        assert self.assert_same(Uniform(), f_j, m) == (False, (top, (_GRID_BLOCK + 8) / (m - 1)))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_kernels_match_value_at(self, family):
        rng = np.random.default_rng(len(family))
        xs = np.concatenate((np.arange(DEFAULT_GRID) / (DEFAULT_GRID - 1), rng.uniform(0.0, 1.0, 500)))
        for _ in range(10):
            d = random_density(rng, family)
            if hasattr(d, "breakpoints"):  # every breakpoint and its neighbouring doubles
                xs = np.concatenate((xs, d.breakpoints, np.nextafter(d.breakpoints, 0.0),
                                     np.nextafter(d.breakpoints, 1.0)))
            for d in (d, d.normalized()):
                expected = np.array([d.value_at(float(x)) for x in xs])
                if family in EXACT_KERNELS:
                    assert np.array_equal(d._values_at(xs), expected)
                else:  # numpy's exp and power against libm's, then up to three roundings
                    np.testing.assert_array_max_ulp(d._values_at(xs), expected, maxulp=4)


class TestBinomialPair:
    def test_known_ordered_pair(self):
        # f_i = x + 1/2, f_j = 2x, s=1, t=0: 1*0 - 2*(1/2) = -1 <= 0
        assert check_binomial_pair(1.0, 0.5, 2.0, 0.0, 1, 0)

    def test_identical(self):
        assert check_binomial_pair(1.0, 0.5, 1.0, 0.5, 1, 0)

    def test_reversed(self):
        assert not check_binomial_pair(2.0, 0.0, 1.0, 0.5, 1, 0)

    def test_agrees_with_grid_500_random_pairs(self):
        rng = np.random.default_rng(42)
        agree = 0
        for _ in range(500):
            s, t = 2, 0
            a_i, a_j = rng.uniform(0.05, 3.0, 2)
            b_i, b_j = rng.uniform(0.05, 2.0, 2)
            analytic = check_binomial_pair(a_i, b_i, a_j, b_j, s, t)
            grid, _ = check_pair_grid(BinomialPoly(float(a_i), float(b_i), s, t),
                                      BinomialPoly(float(a_j), float(b_j), s, t), 4096)
            assert analytic == grid
            agree += 1
        assert agree == 500


class TestGaussianPair:
    def test_examples(self):
        assert check_gaussian_pair(0.2, 0.8, 0.2)
        assert check_gaussian_pair(0.5, 0.5, 1.0)
        assert not check_gaussian_pair(0.8, 0.2, 0.2)


class TestFosd:
    def test_uniform_vs_quadratic(self):
        # tails: 1 - t <= 1 - t^3 on [0, 1]
        assert check_fosd(Uniform(), QUAD, 512)

    def test_identical(self):
        assert check_fosd(Uniform(), Uniform(), 64)

    def test_reversed(self):
        assert not check_fosd(QUAD, Uniform(), 512)


class TestRatioProperties:
    def test_uniform_pair(self):
        assert check_ratio_properties(Uniform(), Uniform(), [((0.0, 0.3), (0.5, 0.9))])

    def test_quadratic_pair(self):
        assert check_ratio_properties(Uniform(), QUAD, [((0.0, 0.3), (0.5, 0.9))])

    def test_reversed_pair_fails(self):
        assert not check_ratio_properties(QUAD, Uniform(), [((0.0, 0.3), (0.5, 0.9))])

    def test_random_interval_samples(self):
        rng = np.random.default_rng(9)
        pairs = []
        for _ in range(50):
            a, b, c, d = np.sort(rng.uniform(0.0, 1.0, 4))
            pairs.append(((float(a), float(b)), (float(c), float(d))))
        assert check_ratio_properties(Uniform(), QUAD, pairs)


class TestVerifyInstance:
    def test_transitivity_all_pairs(self):
        inst = Instance.from_densities(
            [GaussianRestricted(m, 0.25) for m in (0.2, 0.5, 0.8)])
        report = verify_instance(inst, 1024)
        assert report.all_verified and report.violation is None
        # every pair, not just adjacent
        for i in range(3):
            for j in range(i + 1, 3):
                assert check_pair_grid(inst.agents[i], inst.agents[j], 1024)[0]

    def test_violation_reported(self):
        inst = Instance.from_densities([QUAD, Uniform()])
        report = verify_instance(inst, 512)
        assert not report.all_verified
        assert report.violation is not None


class TestPerturb:
    def test_two_interval_example(self):
        ii = IntervalInstance(((0.0, 0.5), (0.5, 1.0)))
        assert perturbation_height_factor(ii, 0.1) == 40.0
        raw = perturbation_density(ii, 0, 0.1)
        assert raw.heights == (2.0, 2.0 / 40.0)
        raw2 = perturbation_density(ii, 1, 0.1)
        assert raw2.heights == (2.0 / 40.0, 2.0)

    def test_single_agent_constant(self):
        raw = perturbation_density(IntervalInstance(((0.0, 1.0),)), 0, 0.2)
        assert raw.heights == (1.0,)
        assert raw.breakpoints == ()

    def test_nested_rejected(self):
        with pytest.raises(OrderingError):
            perturb(IntervalInstance(((0.0, 1.0), (0.3, 0.4))), 0.1)

    def test_exact_height_on_own_interval_and_bound_outside(self):
        rng = np.random.default_rng(17)
        ii = op_intervals(4, rng)
        order = ii.sorted_order()
        eta = 0.15
        big_h = perturbation_height_factor(ii, eta)
        for rank in range(4):
            raw = perturbation_density(ii, rank, eta)
            l, r = ii.intervals[order[rank]]
            h = 1.0 / (r - l)
            for x in np.linspace(l + 1e-9, r - 1e-9, 7):
                assert raw.value_at(float(x)) == pytest.approx(h, rel=1e-12)
            for x in np.linspace(0.0, 1.0, 101):
                if not (l <= x <= r):
                    assert raw.value_at(float(x)) <= h / big_h * (1 + 1e-12)

    def test_perturbed_instance_is_mlrp(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            ii = op_intervals(3, rng)
            inst = perturb(ii, 0.1)
            report = verify_instance(inst, 512)
            assert report.all_verified

    def test_envy_transfers_to_original(self):
        # eta-EF in the perturbed instance implies 2*eta-EF in the interval instance
        rng = np.random.default_rng(31)
        eta = 0.05
        ii = op_intervals(3, rng)
        inst = perturb(ii, eta)
        led = QueryLedger()
        alloc = envy_free(inst, eta, led)
        original = Instance.from_densities(
            [ii.density(i) for i in ii.sorted_order()], normalize=False)
        assert envy_matrix(original, alloc).max_envy <= 2.0 * eta + 1e-9


def test_detect_order_single_agent():
    inst = Instance.from_densities([Uniform()])
    led = QueryLedger()
    assert detect_order(inst, led) == [0]
    assert led.eval_count == 1
