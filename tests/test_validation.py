"""Validation paths the algorithm tests never reach: each rejected input raises its own
FairsliceError subclass with its message, and each accepted edge input returns its value."""

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
    envy_matrix,
    pl_config,
)
from fairslice.density import _exponent, restrict_unit
from fairslice.errors import (DegenerateDensityError, DomainError, InvalidDivisionError,
                              NotFullSupportError)
from fairslice.mlrp import (check_binomial_pair, check_gaussian_pair, check_ratio_properties,
                            perturbation_density, perturbation_height_factor)
from fairslice.ripple import iteration_cap
from fairslice.welfare import mk_chain, reorder_to_mlrp, switching_point

FLAT = PiecewiseLinear((), (0.0,), (1.0,))
PAIR = Instance.from_densities([Linear(-1.0, 1.5), Uniform()])
OP = IntervalInstance(((0.0, 0.6), (0.3, 1.0)))
#: j's ratio to i rises from the first tenth to the last, but j holds less of (1/2, 1)
HUMP = PiecewiseConstant((0.1, 0.5, 0.9), (0.5, 1.8, 0.2, 1.5))

CASES = {
    "restrict_unit-window": (lambda: restrict_unit(FLAT, 0.5, 0.5),
                             DomainError, "invalid restriction window [0.5, 0.5]"),
    # a window 1e-310 wide has a subnormal mass, whose reciprocal scale overflows
    "restrict_unit-scale": (lambda: restrict_unit(FLAT, 0.0, 1e-310),
                            DomainError, "PiecewiseLinear scale inf is not finite"),
    "binomial-exponents": (lambda: BinomialPoly(1.0, 1.0, 1, 2), DomainError,
                           "binomial exponents must be integers s > t >= 0, got s=1, t=2"),
    "binomial-negative": (lambda: BinomialPoly(-2.0, 1.0, 2, 0),
                          NotFullSupportError, "binomial polynomial negative on [0,1]"),
    "piecewise-linear-segments": (lambda: PiecewiseLinear((0.5,), (0.0,), (1.0,)),
                                  DomainError, "need exactly len(breakpoints)+1 segments"),
    "piecewise-constant-heights": (lambda: PiecewiseConstant((0.5,), (1.0,)),
                                   DomainError, "need exactly len(breakpoints)+1 heights"),
    "piecewise-constant-negative": (lambda: PiecewiseConstant((0.5,), (1.0, -0.5)),
                                    NotFullSupportError, "negative step height"),
    "gaussian-sigma": (lambda: GaussianRestricted(0.5, 0.0),
                       DomainError, "sigma must be positive, got 0.0"),
    "exponential-rate": (lambda: ExponentialRestricted(-1.0),
                         DomainError, "rate must be positive, got -1.0"),
    "exponent-integral-float": (lambda: _exponent(2.0), None, 2),
    "pl_config-eta": (lambda: pl_config(1.0, 4, 2.0), DomainError, "eta=1.0 outside (0, 1)"),
    "pl_config-k": (lambda: pl_config(1e-2, 0, 2.0),
                    DomainError, "breakpoint count k=0 must be >= 1"),
    "binomial-pair": (lambda: check_binomial_pair(1.0, 1.0, 2.0, 1.0, 1, 1),
                      DomainError, "binomial exponents need s > t, got s=1, t=1"),
    "gaussian-pair": (lambda: check_gaussian_pair(0.2, 0.4, 0.0),
                      DomainError, "sigma must be positive, got 0.0"),
    "ratio-unordered": (lambda: check_ratio_properties(Uniform(), HUMP, [((0.5, 0.6), (0.1, 0.2))]),
                        DomainError, "interval pair (0.5,0.6),(0.1,0.2) not ordered"),
    "ratio-tail-violation": (lambda: check_ratio_properties(Uniform(), HUMP, [((0.0, 0.1), (0.9, 1.0))]),
                             None, False),
    "interval-empty": (lambda: IntervalInstance(((0.4, 0.4),)),
                       DegenerateDensityError, "interval [0.4, 0.4] empty or outside the cake"),
    "perturbation-eta": (lambda: perturbation_height_factor(OP, 0.0),
                         DomainError, "eta=0.0 outside (0, 1)"),
    "perturbation-rank": (lambda: perturbation_density(OP, 2, 0.1), DomainError, "rank 2 out of range"),
    "switching-indices": (lambda: switching_point(PAIR, 1, 0, 1e-3, QueryLedger()),
                          DomainError, "need agent indices i < j in range, got (1, 0)"),
    "switching-gamma": (lambda: switching_point(PAIR, 0, 1, 1.0, QueryLedger()),
                        DomainError, "gamma=1.0 outside (0, 1)"),
    "mk_chain-tau": (lambda: mk_chain(PAIR, -0.1, QueryLedger()),
                     DomainError, "negative target value tau=-0.1"),
    "reorder-outside": (lambda: reorder_to_mlrp(PAIR, [(0.5, 1.5), (0.0, 0.5)], QueryLedger()),
                        DomainError, "interval [0.5, 1.5] outside the cake"),
    "reorder-gap": (lambda: reorder_to_mlrp(PAIR, [(0.6, 1.0), (0.0, 0.5)], QueryLedger()),
                    DomainError, "pieces do not tile the cake"),
    "audit-piece-outside": (lambda: envy_matrix(PAIR, [[(0.0, 0.5)], [(0.5, 1.25)]]),
                            InvalidDivisionError, "piece [0.5, 1.25] outside the cake"),
    "iteration_cap-one-agent": (lambda: iteration_cap(1, 2.0, 1e-3), None, 0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_validation_path(name):
    call, error, want = CASES[name]
    if error is None:
        got = call()
        assert got == want and type(got) is type(want)
    else:
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error and str(info.value) == want
