"""Seeded instance generators used across the test suite.

All generators return instances whose agents are already in MLRP order and
whose density lower bounds stay well away from zero, so query Lipschitz
constants remain moderate.
"""

from __future__ import annotations

import numpy as np

from fairslice import (
    BinomialPoly,
    ExponentialRestricted,
    GaussianRestricted,
    Instance,
    IntervalInstance,
    Linear,
    PiecewiseLinear,
    Uniform,
    perturb,
)


def gaussian_instance(n: int, rng: np.random.Generator) -> Instance:
    sigma = float(rng.uniform(0.18, 0.3))
    means = np.sort(rng.uniform(0.15, 0.85, n))
    return Instance.from_densities([GaussianRestricted(float(m), sigma) for m in means])


def linear_instance(n: int, rng: np.random.Generator) -> Instance:
    densities = []
    for _ in range(n):
        b = float(rng.uniform(0.2, 2.0))
        a = float(rng.uniform(-0.8 * b, 3.0))
        densities.append(Linear(a, b))
    densities.sort(key=lambda d: d.a / d.b)  # binomial MLRP criterion with s=1, t=0
    return Instance.from_densities(densities)


def binomial_instance(n: int, rng: np.random.Generator) -> Instance:
    s = int(rng.integers(2, 4))
    densities = []
    for _ in range(n):
        a = float(rng.uniform(0.3, 3.0))
        b = float(rng.uniform(0.25, 2.0))
        densities.append(BinomialPoly(a, b, s, 0))
    densities.sort(key=lambda d: d.a / d.b)
    return Instance.from_densities(densities)


def mixed_sign_pair() -> Instance:
    """Binomial pair whose first agent has a < 0: its cuts keep the plain bisection."""
    return Instance.from_densities([BinomialPoly(-0.5, 1.0, 2, 0), BinomialPoly(1.0, 1.0, 2, 0)])


def family_sweep(seed: int) -> list[Instance]:
    """Gaussian, linear and binomial instances at n in {2, 5, 9, 16}, then the mixed-sign pair."""
    rng = np.random.default_rng(seed)
    instances = [maker(n, rng) for maker in (gaussian_instance, linear_instance, binomial_instance)
                 for n in (2, 5, 9, 16)]
    return instances + [mixed_sign_pair()]


def mlrp_instance(n: int, rng: np.random.Generator) -> Instance:
    maker = (gaussian_instance, linear_instance, binomial_instance)[int(rng.integers(3))]
    return maker(n, rng)


def op_intervals(n: int, rng: np.random.Generator) -> IntervalInstance:
    """Comonotone interval instance: lefts ascend in [0, .4], rights in [.5, 1]."""
    lefts = [(i + float(rng.uniform(0.0, 0.5))) * 0.4 / n for i in range(n)]
    rights = [0.5 + (i + float(rng.uniform(0.0, 0.5))) * 0.5 / n for i in range(n)]
    return IntervalInstance(tuple(zip(lefts, rights)))


def piecewise_linear_instance(n: int, k: int, rng: np.random.Generator) -> Instance:
    """Continuous piecewise-linear instance, k interior breakpoints total, U <= 4."""
    owner = rng.integers(0, n, size=k)
    densities = []
    for i in range(n):
        ki = int((owner == i).sum())
        while True:
            brk = np.sort(rng.uniform(0.05, 0.95, ki))
            if len(np.unique(np.round(brk, 6))) == ki:
                break
        knots = np.concatenate(([0.0], brk, [1.0]))
        while True:
            ys = rng.uniform(0.3, 2.5, ki + 2)
            widths = np.diff(knots)
            total = float((0.5 * (ys[:-1] + ys[1:]) * widths).sum())
            if ys.max() / total <= 3.9:
                break
        slopes, intercepts = [], []
        for x0, x1, y0, y1 in zip(knots[:-1], knots[1:], ys[:-1], ys[1:]):
            s = (y1 - y0) / (x1 - x0)
            slopes.append(float(s))
            intercepts.append(float(y0 - s * x0))
        densities.append(PiecewiseLinear(tuple(float(b) for b in brk),
                                         tuple(slopes), tuple(intercepts)))
    return Instance.from_densities(densities)


def every_family_instances() -> list[Instance]:
    """A few seeded instances of every density family, the mixed-sign binomial pair included."""
    rng = np.random.default_rng(31)
    instances = [maker(n, rng) for maker in (gaussian_instance, linear_instance, binomial_instance)
                 for n in (2, 4, 7)]
    instances += [piecewise_linear_instance(3, 4, rng), perturb(op_intervals(4, rng), 0.1),
                  Instance.from_densities([Uniform()] * 3),
                  Instance.from_densities([ExponentialRestricted(r) for r in (3.0, 1.0, 0.2)]),
                  mixed_sign_pair()]
    return instances
