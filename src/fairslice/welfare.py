"""Welfare maximization under MLRP in the Robertson-Webb model.

Under MLRP the agent with the highest density moves only right, so a stack
pass over at most 2n - 3 golden-section switching-point searches finds the
upper envelope of the densities.  Social welfare: the optimum is the
integral of max_i f_i, and the allocation that follows the envelope is
within eta of it, with no table or DP.  Egalitarian welfare: an
interpolating search (ripple's probe rule) over target values of a
moving-knife chain, using feasibility monotonicity; a run is feasible only
when no interval is cut short.  Nash welfare, certified first: coordinate
ascent on the cuts, each a golden-section search, then one envelope pass of
the densities scaled by beta_i = 1/u_i, the Eisenberg-Gale dual, which
bounds every division's Nash welfare by
B = (W_hat + 3 (n - 1) U max(beta) gamma) / (n (prod beta_i)^(1/n)), W_hat
being the pass's weighted welfare; the cuts are returned once their welfare
is at least (1 - eps) B, after whichever sweep first reaches it.  That bound
rests on the MLRP promise, as the social optimum's envelope does.  A run
that does not certify within NASH_SWEEPS sweeps, or whose bound falls below
its own welfare (off MLRP order), falls back to a product-form DP over an
adaptive grid whose every cell is worth at most eps/(8n) to every agent,
walked with one cut per point inside the envelope's stretches;
MAX_NASH_GRID caps that grid's size before any query of either route (see
max_nash).  All cut points are assigned left to right in MLRP order, which
is where every Pareto optimum lives.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import DomainError, ParameterRegimeError
from .oracle import Instance, QueryLedger, cut_query, eval_query
from .ripple import Allocation, _probe

#: A Nash grid step that advances by at most this closes the grid at 1.
MERGE_TOL = 1e-12

#: 1/phi, the factor by which each golden-section step shrinks a switching-point bracket.
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Smallest switching-point width accepted, 16 doubles below 1: a wider bracket keeps
#: its golden-section points strictly inside after rounding, so every step shrinks it.
MIN_SWITCHING_GAMMA = 2.0 ** -49

#: Largest Nash grid size cap, 8n^2/eps + n + 2 points, that max_nash accepts.
#: The guided grid walk costs one cut query per point inside the envelope's
#: stretches, and the prefix table n - 1 evals per inner point; at this cap a call on
#: seeded Gaussian instances (n = 2, 4, 6; 0.79M, 0.42M, 0.27M grid points)
#: takes 2.2-3.3 s on a 2-core Xeon, and 1.1 s for two uniform agents.
MAX_NASH_GRID = 1_000_000

#: Width within which the Nash grid walk estimates the envelope's switching points, and
#: the certified Nash route its cuts and the switching points of its certificate.
NASH_ENVELOPE_GAMMA = 1e-7

#: Golden-section width of the certified Nash route's first coordinate-ascent sweep.
NASH_SWEEP_TOL = 1e-3

#: Coordinate-ascent sweeps after which an uncertified Nash run falls back to the grid.
NASH_SWEEPS = 12

#: Float tolerance on the Nash cell bound: a cell worth more than epsilon/(8n)
#: plus this to some agent sends the grid route back to the all-agents walk.
NASH_CELL_TOL = 1e-12


@dataclass(frozen=True)
class MovingKnifeRun:
    knives: tuple[float, ...]  # MK_1 .. MK_n
    feasible: bool  # every agent's interval is worth the target


def switching_point(instance: Instance, i: int, j: int, gamma: float, ledger: QueryLedger,
                    known: list[dict[float, float]] | None = None,
                    weights: list[float] | None = None) -> float:
    """A point within gamma of the argmin set of D_ij(x) = w_j v_j(0, x) - w_i v_i(0, x), i < j in MLRP order.

    The weights w are ``weights``, or 1.  Under MLRP, which scaling keeps,
    D_ij falls while w_j f_j < w_i f_i, is flat while they are equal and then
    rises, so its argmin set is where the pair's cake splits best, and a cut
    within gamma of it loses the pair at most U * gamma * max(w_i, w_j).
    Golden-section search (:func:`_golden_section`) keeps a bracket that meets
    that set until it is at most gamma wide, and the search returns the point
    of least D_ij seen, the smallest on ties, the ends included: D_ij(0) = 0
    needs no query, D_ij(1) costs two evals.  Rounded evals flip a comparison
    only between points whose gaps agree to rounding, so noise costs value,
    not position.  (Where both densities vanish on a stretch outside the
    argmin set, D_ij is flat there too, and a tie there may discard the
    argmin.)

    ``known``, when given, holds each agent's prefix evals v_k(0, x) by x:
    the search reads a point's evals from it and records those it asks.
    Costs at most 2 * (3 + ceil(log(gamma) / log(1/phi))) evals, fewer when
    ``known`` already holds a point.  Raises ParameterRegimeError, before
    any query, for gamma < MIN_SWITCHING_GAMMA.
    """
    if not (0 <= i < j < instance.n):
        raise DomainError(f"need agent indices i < j in range, got ({i}, {j})")
    if not 0.0 < gamma < 1.0:
        raise DomainError(f"gamma={gamma} outside (0, 1)")
    if gamma < MIN_SWITCHING_GAMMA:
        raise ParameterRegimeError(
            f"switching-point width gamma={gamma:.3g} is below {MIN_SWITCHING_GAMMA:.3g}, "
            f"the finest bracket doubles resolve; use a larger eta")

    known_i, known_j = ({}, {}) if known is None else (known[i], known[j])
    w_i, w_j = (1.0, 1.0) if weights is None else (weights[i], weights[j])  # 1.0 * v is v exactly

    def gap(x: float) -> float:
        vj = _prefix_eval(instance, j, x, ledger, known_j)
        return w_j * vj - w_i * _prefix_eval(instance, i, x, ledger, known_i)

    return min([(0.0, 0.0), (gap(1.0), 1.0), *_golden_section(gap, 0.0, 1.0, gamma)])[1]


def _prefix_eval(instance: Instance, k: int, x: float, ledger: QueryLedger,
                 memo: dict[float, float]) -> float:
    """v_k(0, x), read from agent k's ``memo`` or asked and recorded there; 0.0 unasked at x = 0."""
    if x == 0.0:
        return 0.0  # F(0) - F(0) in every family
    v = memo.get(x)
    if v is None:
        v = memo[x] = eval_query(instance, k, 0.0, x, ledger)
    return v


def _golden_section(f, a: float, b: float, width: float) -> list[tuple[float, float]]:
    """``(f(x), x)`` at every point of a golden-section search for a minimizer of f on [a, b].

    For f unimodal, the search (Kiefer 1953) keeps a bracket that meets f's
    argmin set, shrinking it by 1/phi per call of f until it is at most
    ``width`` wide; ``width`` must exceed the doubles' resolution of [a, b]
    (see MIN_SWITCHING_GAMMA), so that every step shrinks the bracket.
    """
    c, d = b - INV_PHI * (b - a), a + INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    seen = [(fc, c), (fd, d)]
    while b - a > width:
        if fc <= fd:  # an argmin lies in [a, d]
            b, d, fd = d, c, fc
            c = b - INV_PHI * (b - a)
            fc = f(c)
            seen.append((fc, c))
        else:  # an argmin lies in [c, b]
            a, c, fc = c, d, fd
            d = a + INV_PHI * (b - a)
            fd = f(d)
            seen.append((fd, d))
    return seen


def _envelope_stack(instance: Instance, gamma: float, ledger: QueryLedger,
                    known: list[dict[float, float]],
                    weights: list[float] | None = None) -> list[tuple[int, float, float]]:
    """The MLRP upper envelope as stretches ``(agent, start, end)``, tiling [0, 1] left to right.

    Under MLRP, for i < j the set {f_j >= f_i} is an up-set [p_ij, 1], so the
    agent that attains max_i f_i(x) moves only right as x grows (f_i(x) is
    totally monotone; Aggarwal, Klawe, Moran, Shor and Wilber 1987).  As for
    pseudolines, agent j pops the top b while the estimate of p(b, j) is at
    or before b's start (start 0 within gamma at the bottom), then goes on
    top from p(b, j).  Each agent is pushed once and popped at most once, so
    the pass makes at most 2n - 3 :func:`switching_point` searches.  They
    share ``known``, the agents' prefix evals by point, so no eval of the
    pass is asked twice; every agent's v_k(0, 1) is among them when n >= 2.
    """
    stack = [(0, 0.0)]  # (agent, estimated start of its stretch)
    for j in range(1, instance.n):
        while stack:
            b, start = stack[-1]
            p = switching_point(instance, b, j, gamma, ledger, known, weights)
            if p > max(start, gamma):
                stack.append((j, p))
                break
            stack.pop()
        else:
            stack.append((j, 0.0))
    ends = [start for _, start in stack[1:]] + [1.0]
    return [(agent, start, end) for (agent, start), end in zip(stack, ends)]


def _upper_envelope(instance: Instance, gamma: float, ledger: QueryLedger,
                    known: list[dict[float, float]]) -> list[tuple[int, float, float]]:
    """Stretches ``(agent, lo, hi)``, left to right, on which ``agent`` has the highest density.

    Those of :func:`_envelope_stack` less a margin of 2 gamma at each end, as
    each estimate is within gamma of its pair's argmin set; stretches that the
    margins empty are left out.  Off MLRP order they promise nothing, so
    max_nash checks the cells of the walk they guide.
    """
    return [(agent, start + 2.0 * gamma, end - 2.0 * gamma)
            for agent, start, end in _envelope_stack(instance, gamma, ledger, known)
            if end - start > 4.0 * gamma]


def _prefix_values(instance: Instance, points, cutters, step: float, ledger: QueryLedger,
                   known: list[dict[float, float]]) -> np.ndarray:
    """prefix[k][t] = v_k(0, points[t]) over T points that run from 0 to 1.

    Column 0 is 0.0 unasked: v_k(0, 0) is F(0) - F(0) in every family.  An
    entry at a point ``known[k]`` holds is read from it; every agent's
    v_k(0, 1), which an envelope pass asked, is among them.  An entry whose
    point is a cut of ``step`` by agent k (``cutters[t] == k``, see
    :func:`_nash_grid`) is derived: each run of them is filled from the entry
    before the run, as anchor + j * step, within float error of the eval.
    The other entries are asked: (n - 1)(T - 2) evals on a walk's grid, whose
    inner points are all cuts, less one per entry the memo holds.
    """
    pts = np.fromiter(points, float, len(points))
    prefix = np.zeros((instance.n, pts.size))
    derived = np.fromiter(cutters, int, pts.size) == np.arange(instance.n)[:, None]
    ask = ~derived
    ask[:, 0] = False
    for k, memo in enumerate(known):  # the memo's points on the grid
        keys = np.fromiter(memo, float, len(memo))
        at = np.minimum(np.searchsorted(pts, keys), pts.size - 1)
        held = pts[at] == keys
        prefix[k, at[held]] = np.fromiter(memo.values(), float, len(memo))[held]
        ask[k, at[held]] = derived[k, at[held]] = False
    asked = [eval_query(instance, k, 0.0, p, ledger)
             for k, row in enumerate(ask.tolist()) for p in compress(points, row)]
    prefix[ask] = np.fromiter(asked, float, len(asked))
    # column 0 is never derived, so each run's anchor lies in its own row of the flat table
    flat, at = prefix.ravel(), np.flatnonzero(derived)
    anchor = np.maximum.accumulate(np.where(derived.ravel(), 0, np.arange(flat.size)))[at]
    flat[at] = flat[anchor] + (at - anchor) * step
    return prefix


def _nash_dp(points, prefix: np.ndarray) -> tuple[Allocation, float]:
    """Left-to-right interval partition DP for the Nash product over grid points.

    Returns the allocation whose cuts are grid points and the product it
    attains, the largest over such allocations.  Row k holds, for every
    column t, max over t' <= t of row[k-1][t'] * (prefix[k][t] - prefix[k][t']),
    with back[k][t] the smallest maximizing t', for k < n - 1; the last agent
    is scored only at the final column, over every split in one dense pass
    (``np.argmax`` returns the smallest maximizer, the same tie rule), and
    the cuts follow ``back`` from there.  For splits a < b the score
    difference changes with t by (row[k-1][b] - row[k-1][a]) times the
    growth of prefix[k][t], which is >= 0 since both rows are nondecreasing;
    so a split that beats every smaller one keeps doing so, and back[k] is
    nondecreasing in t (the monotone-maxima structure of Knuth 1971 and
    Aggarwal et al. 1987).  Divide and conquer over columns then scores
    O(T log T) candidates per agent, one numpy pass per recursion level.
    Needs n >= 2.
    """
    n, tt = prefix.shape
    prev, backs = prefix[0], []
    for k in range(1, n - 1):
        cum = prefix[k]
        row, back = np.empty(tt), np.empty(tt, dtype=int)
        # open subproblems: columns [col_lo, col_hi] whose maximizers lie in [opt_lo, opt_hi]
        col_lo, col_hi = np.array([0]), np.array([tt - 1])
        opt_lo, opt_hi = np.array([0]), np.array([tt - 1])
        while col_lo.size:
            mid = (col_lo + col_hi) // 2
            counts = np.minimum(opt_hi, mid) - opt_lo + 1
            starts = np.cumsum(counts) - counts
            flat = np.arange(int(counts.sum()))
            cand = flat - np.repeat(starts - opt_lo, counts)  # split indices t'
            score = prev[cand] * (cum[np.repeat(mid, counts)] - cum[cand])
            best = np.maximum.reduceat(score, starts)
            hits = np.where(score == np.repeat(best, counts), flat, flat.size)
            arg = cand[np.minimum.reduceat(hits, starts)]
            row[mid] = best
            back[mid] = arg
            left, right = col_lo < mid, mid < col_hi
            col_lo, col_hi = (np.concatenate((col_lo[left], mid[right] + 1)),
                              np.concatenate((mid[left] - 1, col_hi[right])))
            opt_lo, opt_hi = (np.concatenate((opt_lo[left], arg[right])),
                              np.concatenate((arg[left], opt_hi[right])))
        prev = row
        backs.append(back)
    scores = prev * (prefix[-1, -1] - prefix[-1])
    t = int(np.argmax(scores))
    product = float(scores[t])
    cuts = [1.0, float(points[t])]
    for back in reversed(backs):
        t = int(back[t])
        cuts.append(float(points[t]))
    cuts.append(0.0)
    cuts.reverse()
    return Allocation(tuple(cuts)), product


def max_social_welfare(instance: Instance, eta: float,
                       ledger: QueryLedger) -> tuple[Allocation, float]:
    """Allocation with social welfare within eta of the optimum, the integral of max_i f_i.

    Each agent of :func:`_envelope_stack`, run with gamma = eta / (4 n U) (U
    bounds every density), gets its stretch, and the popped agents get empty
    pieces; the reported welfare is the sum of the stretch owners' evals,
    the first stretch's, from 0, read from the envelope's prefix evals: its
    end is a point that its pair search asked, or 1.

    Bound, with exact evals.  Let Phi_j be the integral of max_{i<=j} f_i
    less the welfare of the stack after agent j: Phi_0 = 0, and the loss is
    Phi_{n-1}.  Say agent j pops P_j agents and lands on a at s, within
    gamma of the argmin set [p, p'] of D(a, j).  Then f_j <= f_a left of p'
    and f_j >= f_a right of p, and a popped agent with start t is beaten by
    f_j beyond max(t, gamma) + gamma.  Step j raises Phi by at most the mass
    of (f_j - f_a)^+ on [0, s], of (f_old - f_j)^+ on [s, 1] and of
    (f_old - f_a)^+ where a takes over, f_old being the old stack's owner.
    These vanish outside (p', s], [s, p) and the first gamma of each popped
    stretch (2 gamma for a popped bottom, when there is no a), so step j
    adds at most (2 + P_j) U gamma.  The pops total at most n - 1, so the
    loss is at most 3 (n - 1) U gamma < eta.
    """
    if not eta > 0.0:
        raise DomainError(f"eta={eta} must be positive")
    n = instance.n
    if n == 1:
        return Allocation((0.0, 1.0)), 1.0
    gamma = min(eta / (4.0 * n * instance.bounds.upper), 0.25)
    known = [{} for _ in range(n)]
    stretches = _envelope_stack(instance, gamma, ledger, known)
    (agent, _, end), *rest = stretches
    welfare = sum([known[agent][end]] + [eval_query(instance, agent, start, end, ledger)
                                         for agent, start, end in rest])
    # agent k's piece starts where the first envelope agent at or after k starts
    cuts = [min((start for agent, start, _ in stretches if agent >= k), default=1.0)
             for k in range(n)]
    return Allocation((*cuts, 1.0)), welfare


def mk_chain(instance: Instance, tau: float, ledger: QueryLedger) -> MovingKnifeRun:
    """Moving-knife chain MK_i = Cut_i(MK_{i-1}, tau), with MK_0 = 0.

    Feasible iff every agent's interval really has value tau, i.e. no cut was
    truncated at 1.  The chain stops querying once a knife reaches 1.0: the
    knives after it are 1.0, filled in without queries.  A knife at 1.0
    before the last leaves the next agent [1, 1], worth 0.0, so for tau > 0
    that run is infeasible without a query.  Only when the last knife lands
    at 1.0 does one eval decide: the run is feasible iff that last interval
    is worth at least tau, with no slack (a slack wider than the caller's
    grid of targets would end its search on a truncated run).
    """
    if tau < 0.0:
        raise DomainError(f"negative target value tau={tau}")
    n, knives, prev = instance.n, [], 0.0
    for i in range(n):
        y = cut_query(instance, i, prev, tau, ledger)
        knives.append(y)
        if y >= 1.0:
            break
        prev = y
    feasible = knives[-1] < 1.0 or tau == 0.0 or (
        len(knives) == n and eval_query(instance, n - 1, prev, 1.0, ledger) >= tau)
    return MovingKnifeRun(tuple(knives) + (1.0,) * (n - len(knives)), feasible)


def max_egalitarian(instance: Instance, eta: float,
                    ledger: QueryLedger) -> tuple[Allocation, float]:
    """Allocation with egalitarian welfare >= optimum - eta.

    Searches targets k*eta, k = 0..kmax = ceil(1/eta), using feasibility
    monotonicity: once a moving-knife run truncates, all larger targets
    truncate too.  As in bin_search, both ends of the half-open bracket
    [lo, hi) = [0, kmax + 1) are known without a query: the run at k = 0
    costs none (a cut of 0 from 0 is 0 in every family), and kmax + 1, past
    the last target, is never run.  Each probe is ripple's :func:`_probe`
    with w0 = kmax + 1, aimed at a last knife of 1.0 through the (k, last
    knife) points of feasible runs, starting from MK_n(0) = 0 with the first
    probe k = 1 / (n eta), where n uniform agents' last knife reaches 1,
    rounded down and clamped into [lo + 1, hi - 1]; a midpoint probe is
    (lo + hi) // 2.  Infeasible runs only move hi.  The search ends at
    lo + 1 == hi, at the same largest feasible k <= kmax as bisection, with a
    bracket that trails bisection's by at most SLACK = 4 halvings (plus the
    rounding to integers).  It keeps the knives of its best run and reports
    lo * eta, the target every interval of that run is cut to.

    Raises ParameterRegimeError, before any query, when kmax + 1 > 2**53:
    past that, doubles cannot split the bracket, and the clamp would move it
    by one target per run.
    """
    if not 0.0 < eta < 1.0:
        raise DomainError(f"eta={eta} outside (0, 1)")
    kmax = math.ceil(1.0 / eta)
    if kmax + 1 > 2 ** 53:
        raise ParameterRegimeError(
            f"eta={eta:.3g} gives {kmax + 1} targets, more than 2**53, past which doubles "
            f"cannot split the egalitarian search's bracket; use a larger eta")
    best = (0.0,) * instance.n  # knives of the best run: cuts of 0 from 0 are 0
    lo, hi = 0, kmax + 1  # run lo is feasible; hi is past the last target
    points = [(0, 0.0)]  # (k, last knife) of feasible runs
    first = 1.0 / (instance.n * eta)  # MK_n(k) = n k eta for n uniform agents
    step = 0
    while lo + 1 < hi:
        mid = min(max(math.floor(_probe(lo, hi, points, 1.0, step, kmax + 1, first)), lo + 1), hi - 1)
        step += 1
        run = mk_chain(instance, mid * eta, ledger)
        if run.feasible:
            lo, best = mid, run.knives
            points.append((mid, best[-1]))
        else:
            hi = mid
    return Allocation((0.0, *best[:-1], 1.0)), lo * eta


def _nash_grid(instance: Instance, epsilon: float, ledger: QueryLedger,
               known: list[dict[float, float]], guided: bool = True,
               cutters: list[int] | None = None) -> list[float]:
    """Adaptive grid whose every cell is worth at most epsilon/(8n) to every agent, under MLRP.

    Each point is the least of the n cuts of epsilon/(8n) from the last one.
    With ``guided``, inside a stretch of :func:`_upper_envelope` the
    stretch's agent has the highest density, so its cut is that least cut:
    the walk asks it alone, and keeps its cut when it lands at or before the
    stretch's end.  Elsewhere, or when it lands beyond, the walk asks the
    other agents too.  Without ``guided`` it asks all n at every point, which
    bounds the cells for any densities.  The envelope's searches record
    their prefix evals in ``known``.  ``cutters``, when given, receives for
    each point the agent whose cut it is, so that agent values the cell
    before it at exactly epsilon/(8n); it is -1 for 0 and for the closing 1,
    which may be a truncated cut, a close within MERGE_TOL or the cap.
    Raises ParameterRegimeError, before any query, when the grid's size cap
    exceeds MAX_NASH_GRID.
    """
    cap = _grid_cap(instance, epsilon)
    n, step = instance.n, epsilon / (8.0 * instance.n)
    # stretches still ahead of the walk, the nearest last
    ahead = _upper_envelope(instance, NASH_ENVELOPE_GAMMA, ledger, known)[::-1] if guided else []
    points, x = [0.0], 0.0
    cutters = [] if cutters is None else cutters
    cutters.append(-1)
    while x < 1.0 and len(points) <= cap:
        while ahead and ahead[-1][2] <= x:
            ahead.pop()
        agent, nxt, hi = -1, math.inf, 1.0  # outside every stretch, no cut asked yet
        if ahead and ahead[-1][1] <= x:
            agent, _, hi = ahead[-1]
            nxt = cut_query(instance, agent, x, step, ledger)
        by = agent
        if nxt > hi:
            # the least of the n cuts from x, the stretch agent's among them; a cut is at most 1
            for i in range(n):
                if i != agent:
                    y = cut_query(instance, i, x, step, ledger)
                    if y < nxt:
                        nxt, by = y, i
        x = 1.0 if nxt <= x + MERGE_TOL else nxt  # no agent has step mass left: close the grid
        points.append(x)
        cutters.append(by)
    points[-1], cutters[-1] = 1.0, -1
    return points


def _grid_cap(instance: Instance, epsilon: float) -> int:
    """The Nash grid's size cap, 8n^2/eps + n + 2 points; ParameterRegimeError past MAX_NASH_GRID."""
    cap = math.ceil(8.0 * instance.n * instance.n / epsilon) + instance.n + 2
    if cap > MAX_NASH_GRID:
        raise ParameterRegimeError(
            f"epsilon={epsilon} with n={instance.n} allows a Nash grid of {cap} points, "
            f"over the budget of {MAX_NASH_GRID}; use a larger epsilon")
    return cap


def _certified_nash(instance: Instance, epsilon: float, ledger: QueryLedger,
                    known: list[dict[float, float]]) -> tuple[Allocation, float, float] | None:
    """Cuts whose Nash welfare NSW is certified within (1 - epsilon) of the optimum, with NSW
    and the bound B that certifies it; None when no sweep certifies.  Needs n >= 2.

    Primal: coordinate ascent from x_i = i/n.  Each sweep moves every cut x_i
    in turn to a maximizer of v_{i-1}(x_{i-1}, x) v_i(x, x_{i+1}), its
    neighbours held, by golden-section search over [x_{i-1}, x_{i+1}] (two
    prefix evals per point), keeping x_i when no point seen beats it.  Under
    MLRP that product is unimodal: its log's derivative
    f_{i-1}(x)/v_{i-1}(x_{i-1}, x) - f_i(x)/v_i(x, x_{i+1}) changes sign once.
    The width is NASH_SWEEP_TOL, then a quarter of the last, down to gamma =
    NASH_ENVELOPE_GAMMA.

    Certificate, the Eisenberg-Gale dual (Eisenberg and Gale 1959; its
    optimum is the cake's competitive equilibrium, Weller 1985): for weights
    beta_k > 0 every division has sum beta_k u'_k <= W(beta), the integral of
    max_k beta_k f_k, so by AM-GM its NSW is at most
    W(beta) / (n (prod beta_k)^(1/n)).  Scaling keeps MLRP, so the weighted
    :func:`_envelope_stack` of width gamma gives stretches of weighted value
    W_hat >= W(beta) - 3 (n - 1) U max(beta) gamma (see
    :func:`max_social_welfare`).  After every sweep, at beta_k = 1/u_k of
    the cuts' values, (prod beta_k)^(1/n) = 1/NSW and
    B = (W_hat + 3 (n - 1) U max(beta) gamma) NSW / n; the sweep's width
    does not enter B, so coarse cuts that already reach (1 - epsilon) B are
    returned as they stand.  The route returns once
    (1 - epsilon) B <= NSW <= B, and gives up when B < NSW, which proves the
    input off the MLRP promise, or after NASH_SWEEPS sweeps.  Off MLRP a
    product that is not unimodal can hold the ascent and the envelope at the
    same inferior local optimum, and B then certifies it falsely; B < NSW
    catches only some such inputs.  Every eval is a prefix eval, read from
    and recorded in ``known``.
    """
    n, gamma = instance.n, NASH_ENVELOPE_GAMMA

    def prefix(k: int, x: float) -> float:
        return _prefix_eval(instance, k, x, ledger, known[k])

    cuts = [i / n for i in range(n + 1)]
    width = NASH_SWEEP_TOL
    for _ in range(NASH_SWEEPS):
        for i in range(1, n):
            left, right = cuts[i - 1], cuts[i + 1]
            base, top = prefix(i - 1, left), prefix(i, right)

            def loss(x: float, i=i, base=base, top=top) -> float:  # minus the pair's product
                return -(prefix(i - 1, x) - base) * (top - prefix(i, x))

            cuts[i] = min([(loss(cuts[i]), cuts[i]), *_golden_section(loss, left, right, width)])[1]
        values = [prefix(k, cuts[k + 1]) - prefix(k, cuts[k]) for k in range(n)]
        if min(values) > 0.0:
            weights = [1.0 / u for u in values]
            w_hat = sum(weights[k] * (prefix(k, end) - prefix(k, start))
                        for k, start, end in _envelope_stack(instance, gamma, ledger, known, weights))
            nsw = math.prod(values) ** (1.0 / n)
            bound = (w_hat + 3.0 * (n - 1) * instance.bounds.upper * max(weights) * gamma) * nsw / n
            if bound < nsw:
                return None
            if nsw >= (1.0 - epsilon) * bound:
                return Allocation(tuple(cuts)), nsw, bound
        width = max(0.25 * width, gamma)
    return None


def _grid_nash(instance: Instance, epsilon: float, ledger: QueryLedger,
               known: list[dict[float, float]]) -> tuple[Allocation, float]:
    """:func:`max_nash`'s fallback: the product-form DP over an adaptive grid.  Needs n >= 2.

    The guarantee rests on a grid whose every cell is worth at most
    epsilon/(8n) to every agent.  The envelope-guided :func:`_nash_grid`
    meets that bound when the agents are in MLRP order; the prefix table's
    column differences, which the DP needs anyway, are every agent's value
    of every cell, so the bound is checked without a further query.  When
    some cell exceeds epsilon/(8n) by more than NASH_CELL_TOL, the grid and
    its prefix table are rebuilt by the all-agents walk, which meets the
    bound for any densities; the ledger counts both, and the second table
    reads the first one's asked entries instead of asking them again.  A
    table entry at a grid point that its own agent's cut set is derived, not
    asked (see :func:`_prefix_values`), so :func:`_nash_dp` picks its cuts on
    values within float error of the evals.  The product it reports is then
    taken again, in the DP's order, from evals at its cuts: the derived ones
    among them, at most 2(n - 1), are asked here.  The n-th root of that
    product is the reported welfare.  ``known`` holds the prefix evals asked
    before, by agent and point; every table reads them instead of asking.
    """
    n, step = instance.n, epsilon / (8.0 * instance.n)
    cutters = []
    points = _nash_grid(instance, epsilon, ledger, known, cutters=cutters)
    prefix = _prefix_values(instance, points, cutters, step, ledger, known)
    if np.diff(prefix).max() > step + NASH_CELL_TOL:
        for k, memo in enumerate(known):  # the entries that the table asked or read
            memo.update((p, v) for p, v, c in zip(points, prefix[k].tolist(), cutters) if c != k)
        cutters = []
        points = _nash_grid(instance, epsilon, ledger, known, guided=False, cutters=cutters)
        prefix = _prefix_values(instance, points, cutters, step, ledger, known)
    allocation, _ = _nash_dp(points, prefix)
    cols, product = [bisect_left(points, x) for x in allocation.cuts], 1.0
    for k in range(n):
        lo, hi = cols[k], cols[k + 1]
        for t in {lo, hi}:
            if cutters[t] == k and points[t] not in known[k]:  # a derived entry
                prefix[k, t] = eval_query(instance, k, 0.0, points[t], ledger)
        product *= float(prefix[k, hi] - prefix[k, lo])
    return allocation, product ** (1.0 / n)


def max_nash(instance: Instance, epsilon: float,
             ledger: QueryLedger) -> tuple[Allocation, float]:
    """Allocation with Nash social welfare at least (1 - epsilon) times the optimum, and that welfare.

    The certified route (:func:`_certified_nash`) runs first: coordinate
    ascent on the cuts, then one weighted envelope pass at beta_k = 1/u_k,
    the Eisenberg-Gale dual, bounds every division's Nash welfare by
    B = (W_hat + 3 (n - 1) U max(beta) gamma) / (n (prod beta_k)^(1/n)),
    and the cuts are returned once their welfare NSW has
    (1 - epsilon) B <= NSW <= B.  The bound rests on the MLRP promise, as
    :func:`max_social_welfare`'s envelope does.  A run that does not certify
    within NASH_SWEEPS sweeps, or whose B falls below NSW, which proves the
    input off MLRP order, falls back to :func:`_grid_nash`, the product-form
    DP over a grid whose every cell is worth at most epsilon/(8n) to every
    agent; the grid reads every prefix eval the certified route asked, and
    the ledger counts both.  The grid's guarantee holds for any densities,
    so off MLRP the (1 - epsilon) bound holds when the certificate declines;
    a certificate there may be false (see :func:`_certified_nash`).  Either
    way the welfare reported is prod(u_k)^(1/n), u_k taken from prefix evals
    at the returned cuts.

    Raises ParameterRegimeError, before any query, when the grid's size cap,
    8n^2/eps + n + 2 points, exceeds MAX_NASH_GRID, whether or not the run
    would certify.
    """
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon={epsilon} outside (0, 1)")
    if instance.n == 1:
        return Allocation((0.0, 1.0)), 1.0
    _grid_cap(instance, epsilon)
    known = [{} for _ in range(instance.n)]  # v_k(0, x) by agent and point, shared by both routes
    certified = _certified_nash(instance, epsilon, ledger, known)
    if certified is not None:
        return certified[:2]
    return _grid_nash(instance, epsilon, ledger, known)


def reorder_to_mlrp(instance: Instance, pieces, ledger: QueryLedger) -> list[tuple[float, float]]:
    """Repair an interval division into MLRP order without lowering any agent's value.

    ``pieces[i]`` is agent i's one interval ``(l, r)``; any other count is a
    DomainError.  Sorted, the intervals must abut within 1e-9: adjacency is
    checked, not coverage of [0, 1].  Adjacent intervals held against the
    MLRP order are swapped about the point q' at which the right agent's
    normalized value matches the left agent's old share (three evals and a
    cut per swap).  One insertion pass repairs the leftmost violation first:
    a swap changes no pair left of it but the adjacent one, so the pass
    steps back one position.  Each swap removes one inversion of the agent
    sequence, so at most n(n-1)/2 swaps occur.
    """
    try:
        assignment = [[float(l), float(r), agent] for agent, (l, r) in enumerate(pieces)]
    except (TypeError, ValueError):
        raise DomainError("reorder_to_mlrp needs one (l, r) interval per agent") from None
    if len(assignment) != instance.n:
        raise DomainError(f"reorder_to_mlrp got {len(assignment)} intervals for n={instance.n} agents")
    for l, r, _ in assignment:
        if not 0.0 <= l <= r <= 1.0:
            raise DomainError(f"interval [{l}, {r}] outside the cake")
    assignment.sort(key=lambda seg: (seg[0], seg[1]))
    for left, right in zip(assignment, assignment[1:]):
        if abs(left[1] - right[0]) > 1e-9:
            raise DomainError("pieces do not tile the cake")

    pos = 0
    while pos < len(assignment) - 1:
        p, q, j = assignment[pos]  # agent j currently holds the left interval
        _, r, i = assignment[pos + 1]  # agent i holds the right interval
        if j <= i or r - p <= 0.0:
            pos += 1
            continue
        # agent i precedes j in MLRP order but sits to the right: swap about
        # the q' where j's normalized share matches i's current share.
        beta = eval_query(instance, i, q, r, ledger)
        total_i = eval_query(instance, i, p, r, ledger)
        total_j = eval_query(instance, j, p, r, ledger)
        share = 0.0 if total_i == 0.0 else beta / total_i
        q_prime = cut_query(instance, j, p, share * total_j, ledger)
        q_prime = min(max(q_prime, p), r)
        assignment[pos] = [p, q_prime, i]
        assignment[pos + 1] = [q_prime, r, j]
        pos = max(pos - 1, 0)
    out = [(0.0, 0.0)] * instance.n
    for l, r, agent in assignment:
        out[agent] = (l, r)
    return out
