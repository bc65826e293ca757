"""Ground-truth verification, outside the query model.

This module is the referee: it reads densities directly (no ledger) to
compute exact envy matrices and welfare metrics, and provides brute-force
grid oracles for optima and Pareto dominance and float bisections for the
egalitarian and social-welfare optima.  Algorithms must never import
it; tests and the CLI use it to certify advertised guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDivisionError, UnsupportedSizeError
from .oracle import Division, Instance


def as_piece_lists(division) -> list[list[tuple[float, float]]]:
    """Per-agent piece lists of a Division (an Allocation included) or of raw nested lists."""
    if isinstance(division, Division):
        return division.piece_lists()
    return [[(float(l), float(r)) for l, r in pieces] for pieces in division]


@dataclass(frozen=True)
class EnvyMatrix:
    """values[i][j] = v_i(pieces of agent j); max_envy = max_ij (v_i(D_j) - v_i(D_i))."""

    values: np.ndarray
    max_envy: float


def _validate_pieces(pieces: list[list[tuple[float, float]]]) -> None:
    flat = []
    for plist in pieces:
        for l, r in plist:
            if not (0.0 <= l <= r <= 1.0):
                raise InvalidDivisionError(f"piece [{l}, {r}] outside the cake")
            if r > l:
                flat.append((l, r))
    flat.sort()
    for (_, r1), (l2, _) in zip(flat, flat[1:]):
        if l2 < r1 - 1e-12:
            raise InvalidDivisionError(f"pieces overlap beyond endpoint contact near {l2}")


def envy_matrix(instance: Instance, division) -> EnvyMatrix:
    """Exact n x n value matrix of the division (audit path, no ledger)."""
    pieces = as_piece_lists(division)
    _validate_pieces(pieces)
    n = instance.n
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            values[i, j] = sum(instance.agents[i].measure(l, r) for l, r in pieces[j])
    envy = values - np.diag(values)[:, None]
    return EnvyMatrix(values, float(envy.max()))


def welfare_metrics(instance: Instance, division) -> tuple[float, float, float]:
    """(social, egalitarian, Nash) welfare of the division."""
    return welfare_from_values(envy_matrix(instance, division).values)


def welfare_from_values(values: np.ndarray) -> tuple[float, float, float]:
    """(social, egalitarian, Nash) welfare read off the diagonal of a value matrix."""
    own = np.diag(values)
    nsw = float(np.prod(own) ** (1.0 / len(own))) if own.min() > 0.0 else 0.0
    return float(own.sum()), float(own.min()), nsw


def _prefix_table(instance: Instance, m: int) -> np.ndarray:
    if m > 2000:
        raise UnsupportedSizeError(f"grid m={m} exceeds the supported 2000")
    grid = np.linspace(0.0, 1.0, m + 1)
    return np.array([[agent.measure(0.0, g) for g in grid] for agent in instance.agents])


def _grid_dp(prefix: np.ndarray, value, combine) -> float:
    """Max over every cut tuple 0 <= t_1 <= ... <= t_{n-1} <= m of the left fold
    combine(...combine(value(0, v_0), value(1, v_1))..., value(n-1, v_{n-1})), where v_k
    is agent k's value of [g_{t_k}, g_{t_{k+1}}] on the grid g (t_0 = 0, t_n = m).

    Stage k holds, per grid point t, the best fold over agents 0..k sharing [0, g_t].
    The stagewise max is exact because each combine is nondecreasing in the fold so far.
    """
    n, tt = prefix.shape
    best = value(0, prefix[0])
    after = np.tri(tt, k=-1, dtype=bool)  # after[s, t]: s > t, not a cut tuple
    for k in range(1, n):
        ends = slice(None) if k < n - 1 else slice(-1, None)  # the last agent ends at 1
        vals = combine(best[:, None], value(k, prefix[k][None, ends] - prefix[k][:, None]))
        vals[after[:, ends]] = -np.inf
        best = vals.max(axis=0)
    return float(best[-1])


_COMBINE = {"sw": (lambda k, v: v, np.add), "ew": (lambda k, v: v, np.minimum),
            "nsw": (lambda k, v: np.maximum(v, 0.0), np.multiply)}


def brute_force_optimum(instance: Instance, objective: str, m: int) -> float:
    """Max SW/EW/NSW over all nondecreasing cut tuples on an m-cell uniform grid.

    An exact O(n m^2) grid DP over the densities, independent of the DP/search
    paths it audits.
    """
    if objective not in _COMBINE:
        raise UnsupportedSizeError(f"unknown objective {objective!r}")
    best = _grid_dp(_prefix_table(instance, m), *_COMBINE[objective])
    return best ** (1.0 / instance.n) if objective == "nsw" else best


def egalitarian_optimum(instance: Instance) -> float:
    """The largest tau, to adjacent doubles, at which the moving-knife chain feeds every agent.

    The chain runs in the instance's agent order, which is where the paper's
    egalitarian optimum lives under MLRP: each knife cuts tau from the last
    one with ``inverse_measure``, and tau is feasible iff no interval is cut
    short at 1.  Feasibility is monotone in tau, so a float bisection of
    [0, 1] ends on two adjacent doubles and returns the feasible one.  Reads
    the densities directly, with no ledger.
    """
    def feasible(tau: float) -> bool:
        knife = 0.0
        for agent in instance.agents:
            y = agent.inverse_measure(knife, tau)
            if y >= 1.0 and agent.measure(knife, 1.0) < tau:
                return False
            knife = y
        return True

    lo, hi = 0.0, 1.0
    if feasible(hi):
        return hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        lo, hi = (mid, hi) if feasible(mid) else (lo, mid)


def social_optimum(instance: Instance) -> float:
    """The integral of max_i f_i: the social-welfare optimum of an instance in MLRP order.

    Under MLRP, for i < j the set {f_j >= f_i} is an up-set, so the agent
    with the highest density moves only right, and a stack pass in agent
    order finds the upper envelope: agent j pops the top b while their
    crossing is at or before b's start, then goes on top from the crossing.
    Each crossing inf{x : f_j(x) >= f_i(x)} is a float bisection of that
    sign, read from ``value_at``, to adjacent doubles; the optimum is the sum
    of ``measure`` over the envelope's stretches.  Reads the densities
    directly, with no ledger.  Each crossing is off by at most a double's
    spacing, and each measure by a few rounding errors of 1, so the result
    is within about 4n * 2^-52 * max(1, U) of the integral.  Off MLRP order
    it is the welfare of one contiguous allocation, not an upper bound.
    """
    agents = instance.agents

    def crossing(i: int, j: int) -> float:
        def beats(x: float) -> bool:
            return agents[j].value_at(x) >= agents[i].value_at(x)

        if beats(0.0):
            return 0.0
        if not beats(1.0):
            return 1.0
        lo, hi = 0.0, 1.0  # not beats(lo), beats(hi)
        while True:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                return hi
            lo, hi = (lo, mid) if beats(mid) else (mid, hi)

    stack = [(0, 0.0)]  # (agent, start of its stretch)
    for j in range(1, instance.n):
        while stack:
            b, start = stack[-1]
            p = crossing(b, j)
            if p > start:
                stack.append((j, p))
                break
            stack.pop()
        else:
            stack.append((j, 0.0))
    ends = [start for _, start in stack[1:]] + [1.0]
    return sum(agents[agent].measure(start, end) for (agent, start), end in zip(stack, ends))


def pareto_dominated_on_grid(instance: Instance, division, m: int) -> bool:
    """True iff some grid allocation (MLRP order) weakly improves everyone,
    and improves someone by more than 1e-9.

    Restricting the candidate dominators to MLRP-order-conforming cut tuples
    is lossless when the instance is in MLRP order: any dominating division
    can be repaired into a conforming allocation without lowering values.
    The grid DP scores an agent's piece -inf if it loses more than 1e-12,
    1 if it gains more than 1e-9 and 0 otherwise; a dominator sums to >= 1.
    """
    own = np.diag(envy_matrix(instance, division).values)

    def score(k, v):
        return np.where(v < own[k] - 1e-12, -np.inf, (v > own[k] + 1e-9).astype(float))

    return _grid_dp(_prefix_table(instance, m), score, np.add) >= 1.0


def is_perfect(instance: Instance, division, tol: float) -> bool:
    """True iff every agent values every bundle at exactly 1/n (within tol)."""
    values = envy_matrix(instance, division).values
    return bool(np.abs(values - 1.0 / instance.n).max() <= tol)
