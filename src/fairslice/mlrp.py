"""MLRP order detection, verification, and the MLRP-manufacturing perturbation.

Grid-based checks are falsifiers, not provers: monotonicity of a likelihood
ratio over a continuum cannot be decided from finitely many samples for
arbitrary families.  The binomial and Gaussian checks are exact analytic
criteria for those families.

The likelihood-ratio grid check runs in numpy, over blocks of ``_GRID_BLOCK``
points, so a large grid needs no more memory than the default one.  Its
density values are those of ``value_at``, except that numpy's ``exp`` and
``power`` round differently from the C library's: Gaussian, exponential and
binomial values may lie a few ulps away (at most 4 seen), far below
``RATIO_SLACK`` on full-support densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import Density, PiecewiseConstant
from .errors import DegenerateDensityError, DomainError, NotFullSupportError, OrderingError
from .oracle import Instance, QueryLedger, eval_query

DEFAULT_GRID = 4096
RATIO_SLACK = 1e-12
#: Grid points per numpy block of ``check_pair_grid``; bounds its memory on any grid.
_GRID_BLOCK = 1 << 15


@dataclass(frozen=True)
class MlrpReport:
    """Outcome of verifying an instance's MLRP order."""

    order: tuple[int, ...]
    verified: tuple[bool, ...]  # one entry per adjacent pair in `order`
    grid_size: int
    violation: tuple[int, int, float, float] | None  # (i, j, x1, x2) first failure

    @property
    def all_verified(self) -> bool:
        return all(self.verified)


def detect_order(instance: Instance, ledger: QueryLedger,
                 tails: list[float] | None = None) -> list[int]:
    """MLRP order of a promised-MLRP instance: sort by Eval_i(1/2, 1), stable ties.

    Uses exactly n eval queries; ``tails``, when given, receives them in
    agent order.  On instances that do not actually satisfy MLRP the result
    is just a candidate order for downstream verification.
    """
    tail_values = [eval_query(instance, i, 0.5, 1.0, ledger) for i in range(instance.n)]
    if tails is not None:
        tails += tail_values
    return sorted(range(instance.n), key=lambda i: tail_values[i])


def check_pair_grid(f_i: Density, f_j: Density,
                    m: int = DEFAULT_GRID) -> tuple[bool, tuple[float, float] | None]:
    """True iff f_j/f_i is nondecreasing, within RATIO_SLACK, on m uniform samples; else a witness pair.

    A zero f_i with positive f_j gives an infinite ratio, which participates in
    the comparison like any other value; 0/0 or a negative sample is an error
    if it comes at or before the first decrease.  The witness is (x of the
    first running maximum before the decrease, x of the decrease).
    """
    if m < 2:
        raise DomainError(f"grid size m={m} must be at least 2")
    best, best_x = -math.inf, 0.0  # running maximum of the ratio and the first x reaching it
    for start in range(0, m, _GRID_BLOCK):
        xs = np.arange(start, min(start + _GRID_BLOCK, m)) / (m - 1)
        with np.errstate(all="ignore"):  # overflow to inf and inf/inf = NaN, silently as floats do
            num, den = f_j._values_at(xs), f_i._values_at(xs)
            ratio = np.where(den == 0.0, np.inf, num / den)
        undefined = np.isnan(ratio)  # inf/inf: never a decrease and never a new maximum
        if start == 0 and undefined[0]:
            best = math.nan  # ... unless it comes first: then no later ratio compares below it
        # running[k]: the maximum of the ratios before point k
        running = np.maximum.accumulate(np.concatenate(([best], np.where(undefined, -np.inf, ratio))))
        degenerate = (num < 0.0) | (den < 0.0) | ((num == 0.0) & (den == 0.0))
        stops = np.flatnonzero(degenerate | (ratio < running[:-1] - RATIO_SLACK))
        if stops.size:
            k = stops[0]
            if degenerate[k]:
                raise NotFullSupportError(f"degenerate density values at x={float(xs[k])}")
            top = running[k]
            if top > best:
                best_x = xs[np.argmax(ratio[:k] == top)]
            return False, (float(best_x), float(xs[k]))
        top = running[-1]
        if top > best:
            best_x = xs[np.argmax(ratio == top)]
        best = top
    return True, None


def check_binomial_pair(a_i: float, b_i: float, a_j: float, b_j: float,
                        s: int, t: int) -> bool:
    """Exact MLRP criterion for binomial polynomials: a_i*b_j - a_j*b_i <= 0."""
    if not s > t:
        raise DomainError(f"binomial exponents need s > t, got s={s}, t={t}")
    return a_i * b_j - a_j * b_i <= 0.0


def check_gaussian_pair(mu_i: float, mu_j: float, sigma: float) -> bool:
    """Exact MLRP criterion for same-variance Gaussians: mu_i <= mu_j."""
    if not sigma > 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    return mu_i <= mu_j


def check_fosd(f_i: Density, f_j: Density, m: int = DEFAULT_GRID) -> bool:
    """f_j first-order stochastically dominates f_i on an m-point tail grid."""
    for k in range(m):
        t = k / (m - 1)
        if f_j.measure(t, 1.0) < f_i.measure(t, 1.0) - 1e-10:
            return False
    return True


def check_ratio_properties(f_i: Density, f_j: Density, interval_pairs) -> bool:
    """Check both interval-ratio consequences of MLRP on sampled interval pairs.

    ``interval_pairs`` holds ((a, b), (c, d)) with b <= c.  For each pair this
    verifies v_j(a,b)/v_i(a,b) <= v_j(c,d)/v_i(c,d), and on the hull [a, d]
    verifies the normalized-tail comparison v_i(x,d)/v_i(a,d) <= v_j(x,d)/v_j(a,d)
    at x in {b, c, (b+c)/2}.
    """
    for (a, b), (c, d) in interval_pairs:
        if not (a <= b <= c <= d):
            raise DomainError(f"interval pair ({a},{b}),({c},{d}) not ordered")
        vi_ab, vj_ab = f_i.measure(a, b), f_j.measure(a, b)
        vi_cd, vj_cd = f_i.measure(c, d), f_j.measure(c, d)
        if vi_ab > 0 and vi_cd > 0:
            if vj_ab / vi_ab > vj_cd / vi_cd + 1e-10:
                return False
        vi_ad, vj_ad = f_i.measure(a, d), f_j.measure(a, d)
        if vi_ad > 0 and vj_ad > 0:
            for x in (b, 0.5 * (b + c), c):
                if f_i.measure(x, d) / vi_ad > f_j.measure(x, d) / vj_ad + 1e-10:
                    return False
    return True


def verify_instance(instance: Instance, m: int = DEFAULT_GRID,
                    order: list[int] | None = None) -> MlrpReport:
    """Grid-verify every adjacent pair of the (given or identity) order."""
    order = list(range(instance.n)) if order is None else list(order)
    verified, violation = [], None
    for k in range(len(order) - 1):
        i, j = order[k], order[k + 1]
        ok, witness = check_pair_grid(instance.agents[i], instance.agents[j], m)
        verified.append(ok)
        if not ok and violation is None:
            violation = (i, j, witness[0], witness[1])
    return MlrpReport(tuple(order), tuple(verified), m, violation)


# -- structured perturbation (interval instances -> full-support MLRP) -------


@dataclass(frozen=True)
class IntervalInstance:
    """Each agent uniformly values a single interval [l_i, r_i] of the cake."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ivs = tuple((float(l), float(r)) for l, r in self.intervals)
        object.__setattr__(self, "intervals", ivs)
        for l, r in ivs:
            if not (0.0 <= l < r <= 1.0):
                raise DegenerateDensityError(f"interval [{l}, {r}] empty or outside the cake")

    @property
    def n(self) -> int:
        return len(self.intervals)

    def sorted_order(self) -> list[int]:
        """Agents sorted by left endpoint (ties by right); raises if OP fails."""
        order = sorted(range(self.n), key=lambda i: self.intervals[i])
        rights = [self.intervals[i][1] for i in order]
        if any(rights[k] > rights[k + 1] for k in range(len(rights) - 1)):
            raise OrderingError("interval instance violates the ordering property (nested intervals)")
        return order

    def heights(self) -> list[float]:
        return [1.0 / (r - l) for l, r in self.intervals]

    def density(self, i: int) -> PiecewiseConstant:
        """Agent i's original (non-full-support) uniform-on-interval density."""
        l, r = self.intervals[i]
        brk = tuple(p for p in (l, r) if 0.0 < p < 1.0)
        h = 1.0 / (r - l)
        heights = tuple(h if l <= 0.5 * (lo + hi) <= r else 0.0
                        for lo, hi in zip((0.0, *brk), (*brk, 1.0)))
        return PiecewiseConstant(brk, heights)


def perturbation_height_factor(interval_instance: IntervalInstance, eta: float) -> float:
    """H = (2/eta) * max_i h_i, the scale-up factor of the perturbation."""
    if not 0.0 < eta < 1.0:
        raise DomainError(f"eta={eta} outside (0, 1)")
    return (2.0 / eta) * max(interval_instance.heights())


def perturbation_density(interval_instance: IntervalInstance, rank: int,
                         eta: float) -> PiecewiseConstant:
    """Raw (unnormalized) perturbed density of the rank-th agent in sorted order.

    Heights are h * H^(c(x) - (rank+1) - d(x)) where c counts left endpoints of
    agents up to this one that lie at or before x, and d counts right endpoints
    of agents from this one on.  On the agent's own interval the height equals
    h exactly; elsewhere it is at most h / H.
    """
    order = interval_instance.sorted_order()
    ivs = [interval_instance.intervals[i] for i in order]
    n = len(ivs)
    if not 0 <= rank < n:
        raise DomainError(f"rank {rank} out of range")
    big_h = perturbation_height_factor(interval_instance, eta)
    h = 1.0 / (ivs[rank][1] - ivs[rank][0])
    edges = sorted({p for iv in ivs for p in iv if 0.0 < p < 1.0})
    knots = [0.0, *edges, 1.0]
    heights = []
    for lo, hi in zip(knots[:-1], knots[1:]):
        x = 0.5 * (lo + hi)
        c = sum(1 for k in range(rank + 1) if ivs[k][0] <= x)
        d = sum(1 for k in range(rank, n) if ivs[k][1] <= x)
        heights.append(h * big_h ** (c - (rank + 1) - d))
    return PiecewiseConstant(tuple(edges), tuple(heights))


def perturb(interval_instance: IntervalInstance, eta: float) -> Instance:
    """Full-support MLRP instance from an ordered interval instance.

    Agent k of the result corresponds to the k-th interval in left-endpoint
    order (``interval_instance.sorted_order()``), which is also the MLRP order
    of the perturbed densities.  Any eta-envy-free allocation of the result is
    2*eta-envy-free in the original interval instance.
    """
    n = interval_instance.n
    densities = [perturbation_density(interval_instance, k, eta) for k in range(n)]
    return Instance.from_densities(densities)
