"""Welfare maximization under MLRP in the Robertson-Webb model.

Under MLRP the agent with the highest density moves only right, so a stack
pass over at most 2n - 3 switching-point searches finds the upper envelope
of the densities.  Every line search, there and in the Nash ascent, is one
bracketed Brent search (:func:`_line_search`): parabolic steps while they
shrink the bracket as fast as golden section does, golden-section steps
otherwise, so it asks at most 2 G + 2 points where golden section asks G.
Social welfare: the optimum is the integral of max_i f_i, and the
allocation that follows the envelope is within eta of it, with no table or
DP.  Egalitarian welfare: an
interpolating search (ripple's probe rule) over target values of a
moving-knife chain, using feasibility monotonicity; a run is feasible only
when no interval is cut short.  Nash welfare, certified first: coordinate
ascent on the cuts, each a line search, then one envelope pass of
the densities scaled by beta_i = 1/u_i, the Eisenberg-Gale dual, which
bounds every division's Nash welfare by
B = (W_hat + 3 (n - 1) U max(beta) gamma) / (n (prod beta_i)^(1/n)), W_hat
being the pass's weighted welfare; the cuts are returned once their welfare
is at least (1 - eps) B, after whichever sweep first reaches it.  That bound
rests on the MLRP promise, as the social optimum's envelope does.  A run
that does not certify within NASH_SWEEPS sweeps, or whose bound falls below
its own welfare (off MLRP order), falls back to a product-form DP over an
adaptive grid, each point the least of the n cuts of eps/(8n) from the last,
so that every cell is worth at most eps/(8n) to every agent for any
densities; MAX_NASH_GRID caps that grid's size before any query of either
route (see max_nash).  All cut points are assigned left to right in MLRP
order, which is where every Pareto optimum lives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterRegimeError
from .oracle import Instance, QueryLedger, cut_query, eval_query
from .ripple import Allocation, _probe

#: A Nash grid step that advances by at most this closes the grid at 1.
MERGE_TOL = 1e-12

#: 1/phi: a golden-section step of the line search goes a fraction 1 - 1/phi of the way
#: into the bracket's larger side, and from a golden-section point shrinks it by 1/phi.
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Smallest switching-point width accepted, 16 doubles below 1: Brent's minimum step,
#: a quarter of the width, then stays 4 doubles or more, so every point asked is a
#: distinct double strictly inside the bracket, and every step shrinks it.
MIN_SWITCHING_GAMMA = 2.0 ** -49

#: Largest Nash grid size cap, 8n^2/eps + n + 2 points, that max_nash accepts.
#: The grid walk costs n cut queries per point, and the prefix table n evals per
#: point after the first; near this cap a fallback from a fresh memo on seeded
#: Gaussian instances (n = 2 at eps 3.3e-5, n = 6 at eps 3e-4; 0.77M and 0.26M
#: grid points) takes 2.0-2.2 s and 141 MB peak RSS on a 2-core Xeon.
MAX_NASH_GRID = 1_000_000

#: Width within which the certified Nash route estimates its cuts and the switching
#: points of its certificate.
NASH_ENVELOPE_GAMMA = 1e-7

#: Line-search width of the certified Nash route's first coordinate-ascent sweep.
NASH_SWEEP_TOL = 1e-3

#: Coordinate-ascent sweeps after which an uncertified Nash run falls back to the grid.
NASH_SWEEPS = 12


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
    The line search (:func:`_line_search`, from the golden-section point
    1 - 1/phi) keeps a bracket that meets that set until it is at most gamma
    wide, and the search returns the point of least D_ij seen, the smallest
    on ties, the ends included: D_ij(0) = 0 needs no query, D_ij(1) costs
    two evals.  Rounded evals flip a comparison only between points whose
    gaps agree to rounding, so noise costs value, not position.  (Where both
    densities vanish on a stretch outside the argmin set, D_ij is flat there
    too, and a tie there may discard the argmin.)

    ``known``, when given, holds each agent's prefix evals v_k(0, x) by x:
    the search reads a point's evals from it and records those it asks.
    Costs at most 2 + 2 (2 G + 2) evals, G = 2 + ceil(log(gamma) / log(1/phi))
    being golden section's count of points, and usually far fewer (20 to 76
    from gamma 1e-3 down to MIN_SWITCHING_GAMMA on a uniform agent against
    3x^2, where golden section asks 36 to 148); fewer still when ``known``
    already holds a point.  Raises ParameterRegimeError, before any query,
    for gamma < MIN_SWITCHING_GAMMA.
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

    return min([(0.0, 0.0), (gap(1.0), 1.0), *_line_search(gap, 0.0, 1.0, gamma, 1.0 - INV_PHI)])[1]


def _prefix_eval(instance: Instance, k: int, x: float, ledger: QueryLedger,
                 memo: dict[float, float]) -> float:
    """v_k(0, x), read from agent k's ``memo`` or asked and recorded there; 0.0 unasked at x = 0."""
    if x == 0.0:
        return 0.0  # F(0) - F(0) in every family
    v = memo.get(x)
    if v is None:
        v = memo[x] = eval_query(instance, k, 0.0, x, ledger)
    return v


def _line_search(f, a: float, b: float, width: float, x: float) -> list[tuple[float, float]]:
    """``(f(u), u)`` at every point u of a bracketed Brent search for a minimizer of f on [a, b], from x.

    For f that falls, is flat on its argmin set, then rises, the search
    keeps a bracket [a, b] that meets that set and holds x, the least point
    seen (the latest on ties), until the bracket is at most ``width`` wide:
    a point u beside x with f(u) <= f(x) drops the far side of x, and one
    with f(u) > f(x) drops the far side of u.  Each step asks f at one
    point (Brent 1973, ch. 5): the minimum of the parabola through x and the
    two points seen before it when that lands inside the bracket and moves
    less than half the step before last, and otherwise a golden-section
    point, a fraction 1 - 1/phi of the way from x into the bracket's larger
    side.  No point is asked within width/4 of x or of the bracket's ends,
    so after the first every step shrinks the bracket by at least that
    much; ``width`` must exceed the doubles' resolution of [a, b] (see
    MIN_SWITCHING_GAMMA).

    Safeguard: a parabolic step is tried only when the two steps before it
    shrank the bracket by 1/phi^2, as two golden-section steps do.  A
    golden-section step from a golden-section point shrinks the bracket by
    1/phi and leaves x at one; from any other x it shrinks the bracket to
    at most 0.691 of its width, or leaves x at a golden-section point.  So
    the steps shrink the bracket by 1/phi per two on average, the worst
    cycle being a parabolic step that shrinks nothing, a golden-section step
    that shrinks nothing and two that shrink by 1/phi each, and a search
    asks at most 2 G + 2 points, G = 2 + ceil(log(width / (b - a)) /
    log(1/phi)) being golden section's count from two points.
    """
    fx = f(x)
    seen = [(fx, x)]
    w, fw, v, fv = x, fx, x, fx  # the two points seen before x
    step = last = 0.0  # the last step and the one before it
    widths = [math.inf, math.inf]  # the bracket's width two steps back and one step back
    tol = 0.25 * width
    while b - a > width:
        mid = 0.5 * (a + b)
        parabolic = False
        if b - a <= INV_PHI * INV_PHI * widths[0] and abs(last) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = (-p, q) if q > 0.0 else (p, -q)
            if abs(p) < abs(0.5 * q * last) and q * (a - x) < p < q * (b - x):
                last, step, parabolic = step, p / q, True
                if min(x + step - a, b - x - step) < 2.0 * tol:
                    step = tol if x < mid else -tol
        if not parabolic:
            last = (a - x) if x >= mid else (b - x)
            step = (1.0 - INV_PHI) * last
        u = x + (step if abs(step) >= tol else math.copysign(tol, step))
        fu = f(u)
        seen.append((fu, u))
        widths = [widths[1], b - a]
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
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
    lo + 1 == hi, at the same largest feasible k <= kmax as halving would, with
    a bracket that trails halving's by at most SLACK = 4 halvings (plus the
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


def _nash_grid(instance: Instance, epsilon: float, ledger: QueryLedger) -> list[float]:
    """Adaptive grid from 0 to 1 whose every cell is worth at most epsilon/(8n) to every agent.

    Each point is the least of the n cuts of epsilon/(8n) from the last one,
    asked agent 0 first, so the bound holds for any densities.  A step that
    advances by at most MERGE_TOL closes the grid at 1, as does the size cap.
    Raises ParameterRegimeError, before any query, when the grid's size cap
    exceeds MAX_NASH_GRID.
    """
    cap = _grid_cap(instance, epsilon)
    n, step = instance.n, epsilon / (8.0 * instance.n)
    points, x = [0.0], 0.0
    while x < 1.0 and len(points) <= cap:
        nxt = min(cut_query(instance, i, x, step, ledger) for i in range(n))
        x = 1.0 if nxt <= x + MERGE_TOL else nxt  # no agent has step mass left: close the grid
        points.append(x)
    points[-1] = 1.0
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
    neighbours held, by :func:`_line_search` over [x_{i-1}, x_{i+1}] started
    at x_i, whose product needs no eval after the first sweep (two prefix
    evals per other point, at most 2 G + 2 points where golden section asks
    G), keeping x_i when no point seen beats it.  Under
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

            cuts[i] = min(_line_search(loss, left, right, width, cuts[i]))[1]
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
    """:func:`max_nash`'s fallback: the product-form DP over :func:`_nash_grid`.  Needs n >= 2.

    The prefix table holds v_k(0, p) at every grid point p: 0.0 unasked at
    p = 0 (F(0) - F(0) in every family), read from ``known``, the prefix
    evals asked before by agent and point, or else asked; the table records
    nothing back.  :func:`_nash_dp` picks the cuts, and the n-th root of its
    product, taken from those evals, is the reported welfare.
    """
    points = _nash_grid(instance, epsilon, ledger)
    prefix = np.array([[0.0] + [memo[p] if p in memo else eval_query(instance, k, 0.0, p, ledger)
                                for p in points[1:]] for k, memo in enumerate(known)])
    allocation, product = _nash_dp(points, prefix)
    return allocation, product ** (1.0 / instance.n)


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
    agent for any densities; its prefix table reads every prefix eval the
    certified route asked, and the ledger counts both.  So off MLRP the
    (1 - epsilon) bound holds when the certificate declines; a certificate
    there may be false (see :func:`_certified_nash`).  Either way the
    welfare reported is prod(u_k)^(1/n), u_k taken from prefix evals at the
    returned cuts.

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
