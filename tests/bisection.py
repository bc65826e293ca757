"""Test-only references: the plain bisection searches, the chains that always query,
the Nash grid walk that asks every agent, the all-pairs switching points, the
reorder scan that restarts after every swap, and the chain searches' probe rule
as first written.

The library's chain searches pick each probe by interpolation
(``ripple._probe``), its chains stop querying once a point reaches 1.0, its
Nash grid walk asks one agent inside a stretch of the MLRP upper envelope,
and its social-welfare search follows that envelope instead of running a
partition DP over every pairwise switching point; ``reorder_to_mlrp`` steps
back one position after a swap.  The loops below are the plain versions they
replaced, so that tests can compare cuts, values, grids, intervals, iteration
counts and ledgers against them.  ``reference_probe`` is ``ripple._probe``
with slices and ``min``/``max``, which the library's version must match
double for double.
"""

from __future__ import annotations

import itertools
import math

from fairslice import Allocation, Instance, QueryLedger, cut_query, eval_query
from fairslice.errors import SearchFailedError
from fairslice.ripple import ONE_THRESHOLD, SLACK, RippleDivision
from fairslice.welfare import MERGE_TOL, MovingKnifeRun, switching_point


def full_rd_chain(instance: Instance, x: float, ledger: QueryLedger,
                  evals: list[float] | None = None) -> list[float]:
    """``rd_chain`` with an eval and a cut for every agent, saturated or not."""
    xs = [0.0, x]
    for agent in range(instance.n - 1):
        target = eval_query(instance, agent, xs[-2], xs[-1], ledger)
        if evals is not None:
            evals.append(target)
        xs.append(cut_query(instance, agent, xs[-1], target, ledger))
    return xs[2:]


def full_mk_chain(instance: Instance, tau: float, ledger: QueryLedger) -> MovingKnifeRun:
    """``mk_chain`` with a cut for every agent and an eval for every knife at 1."""
    knives, prev, value = [], 0.0, tau
    for i in range(instance.n):
        y = cut_query(instance, i, prev, tau, ledger)
        knives.append(y)
        if y >= 1.0 and tau > 0.0:
            value = min(value, eval_query(instance, i, prev, 1.0, ledger))
        prev = y
    return MovingKnifeRun(tuple(knives), value >= tau)


def reference_probe(left: float, right: float, points: list[tuple[float, float]], goal: float,
                    k: int, w0: float, first: float) -> float:
    """``ripple._probe`` as first written: every estimate it reaches, then ``min(max(...))``."""
    mid = 0.5 * (left + right)
    est = math.nan  # each estimate is computed only if the one before is not inside
    if len(points) >= 3 and points[-3][1] < points[-2][1] < points[-1][1]:
        (x0, y0), (x1, y1), (x2, y2) = points[-3:]
        est = (x0 * (goal - y1) / (y0 - y1) * (goal - y2) / (y0 - y2)
               + x1 * (goal - y0) / (y1 - y0) * (goal - y2) / (y1 - y2)
               + x2 * (goal - y0) / (y2 - y0) * (goal - y1) / (y2 - y1))
    if not left < est < right:
        if len(points) >= 2 and points[-2][1] < points[-1][1]:
            (x0, y0), (x1, y1) = points[-2:]
            est = x1 + (goal - y1) * (x1 - x0) / (y1 - y0)
        elif len(points) == 1:
            est = first
        if not left < est < right:  # a NaN is never inside
            est = mid
    r = max(w0 * 2.0 ** (SLACK - k - 1) - 0.5 * (right - left), 0.0)
    return min(max(est, mid - r), mid + r)


def bisection_search(instance: Instance, delta: float, ledger: QueryLedger,
                     max_iterations: int | None = None) -> RippleDivision:
    """``bin_search`` probing the bracket midpoint every time."""
    left, right = 0.0, 1.0
    for it in itertools.count(1) if max_iterations is None else range(1, max_iterations + 1):
        mid = 0.5 * (left + right)
        if mid <= left or mid >= right:
            raise SearchFailedError(f"bisection ran out of float resolution at iteration {it}")
        evals = []
        chain = full_rd_chain(instance, mid, ledger, evals)
        endpoint = chain[-1]
        if endpoint < 1.0 - delta:
            left = mid
        elif endpoint >= ONE_THRESHOLD:
            right = mid
        else:
            return RippleDivision((0.0, mid, *chain), it, tuple(evals))
    raise SearchFailedError(f"bisection exhausted {max_iterations} iterations")


def bisection_egalitarian(instance: Instance, eta: float,
                          ledger: QueryLedger) -> tuple[Allocation, float]:
    """``max_egalitarian`` bisecting the target index k every time."""
    kmax = math.ceil(1.0 / eta)
    best = full_mk_chain(instance, 0.0, ledger)
    top = full_mk_chain(instance, kmax * eta, ledger)
    if top.feasible:
        k, best = kmax, top
    else:
        k, hi = 0, kmax
        while k + 1 < hi:
            mid = (k + hi) // 2
            run = full_mk_chain(instance, mid * eta, ledger)
            if run.feasible:
                k, best = mid, run
            else:
                hi = mid
    return Allocation((0.0, *best.knives[:-1], 1.0)), k * eta


def full_nash_grid(instance: Instance, epsilon: float, ledger: QueryLedger) -> list[float]:
    """``_nash_grid`` asking all n agents at every point: the least cut, agent 0's first."""
    cap = math.ceil(8.0 * instance.n * instance.n / epsilon) + instance.n + 2
    step = epsilon / (8.0 * instance.n)
    points, x = [0.0], 0.0
    while x < 1.0 and len(points) <= cap:
        nxt = min(cut_query(instance, i, x, step, ledger) for i in range(instance.n))
        x = 1.0 if nxt <= x + MERGE_TOL else nxt
        points.append(x)
    points[-1] = 1.0
    return points


def all_pairs_switching_points(instance: Instance, gamma: float,
                               ledger: QueryLedger) -> tuple[float, ...]:
    """Every pairwise ``switching_point`` plus 0 and 1: sorted, merged within MERGE_TOL, ending at 1.

    The n(n-1)/2 searches that the social-welfare DP ran over before the
    envelope pass replaced it.
    """
    points = [0.0, 1.0]
    for i in range(instance.n):
        for j in range(i + 1, instance.n):
            points.append(switching_point(instance, i, j, gamma, ledger))
    points.sort()
    merged = [points[0]]
    for p in points[1:]:
        if p - merged[-1] > MERGE_TOL:
            merged.append(p)
    merged[-1] = 1.0
    return tuple(merged)


def plain_reorder(instance: Instance, pieces, ledger: QueryLedger) -> list[tuple[float, float]]:
    """``reorder_to_mlrp`` rescanning from the leftmost pair after every swap, under an n^2 pass cap."""
    assignment = sorted(([float(l), float(r), agent] for agent, (l, r) in enumerate(pieces)),
                        key=lambda seg: (seg[0], seg[1]))
    for _ in range(instance.n * instance.n):
        for pos in range(len(assignment) - 1):
            p, q, j = assignment[pos]
            _, r, i = assignment[pos + 1]
            if j <= i or r - p <= 0.0:
                continue
            beta = eval_query(instance, i, q, r, ledger)
            total_i = eval_query(instance, i, p, r, ledger)
            total_j = eval_query(instance, j, p, r, ledger)
            share = 0.0 if total_i == 0.0 else beta / total_i
            q_prime = cut_query(instance, j, p, share * total_j, ledger)
            q_prime = min(max(q_prime, p), r)
            assignment[pos] = [p, q_prime, i]
            assignment[pos + 1] = [q_prime, r, j]
            break
        else:
            out = [(0.0, 0.0)] * instance.n
            for l, r, agent in assignment:
                out[agent] = (l, r)
            return out
    raise SearchFailedError("plain_reorder did not converge within n^2 passes")
