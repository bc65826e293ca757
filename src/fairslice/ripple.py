"""Ripple divisions: the cut/eval chain, its search, and envy-free allocation.

A delta-ripple division is a set of cut points 0 = x_0 <= x_1 <= ... <= x_n
with x_n >= 1 - delta in which every agent i < n values its interval
[x_{i-1}, x_i] and the next interval [x_i, x_{i+1}] equally (and positively).
Under MLRP such a division induces an envy-free partial allocation; coalescing
the unassigned tail onto the last agent costs the envy that ripple_window bounds.
Windows come from the density upper bound U alone, so a density that touches 0
(whose lambda is infinite) is searched like any other.

The chain searches here and in ``welfare.max_egalitarian`` pick each probe with
:func:`_probe`, an ITP-style rule (Oliveira and Takahashi, ACM TOMS 47(1),
2021): interpolate where the nondecreasing chain value reaches its goal, then
project that estimate onto a shrinking neighbourhood of the bracket midpoint.
Both searches start from bracket ends they know without a query: the first
cut x = 0 and the target k = 0 give chains of 0, and the right ends, x = 1
(whose chain ends at 1) and k = kmax + 1 (past the last target), are never
run.  Each caller hands :func:`_probe` its first probe, the estimate until a
chain's value is seen: where the chains of n uniform agents, RD_n(x) = n x and
MK_n(k) = n k eta, reach the goal, or, in :func:`_search` from PL-EF's halves,
where the chain of their agents' linear models does (:func:`_model_probe`).
The ripple search also reads every chain that misses for such a model: each
agent's eval fits the slope of a linear density, and its cut, a second equation
that costs no query, checks the fit (:func:`_fitted_slopes`).  Only when every
agent's cut confirms it does the model's chain aim the next probe; on curved
densities the check fails and the search goes on as if it had not run, fitting
no more chains once one that every agent cut for has failed it.  The
projection keeps every bracket within 2**SLACK times bisection's width: a
search reaches any bracket width at most SLACK = 4 iterations after bisection
would, whatever its first or model probe.  Its worst case is therefore the
iterations bisection needs to narrow the bracket below the window's preimage,
plus SLACK.
So no search needs a cap: each ends on a hit or at adjacent doubles, which
bisection reaches within 1,074 halvings of [0, 1].  Where lambda is finite, the
paper's cap 2(n-1) log2(2 lambda / delta), PL-EF's budget, has that margin: as a
chain of 2(n-1) queries stretches distances at most lambda-fold each, bisection
needs at most 2(n-1) log2(lambda) + log2(1/delta) + 1 iterations, SLACK or more
below the cap for n >= 3 at every delta <= 1/2, and for n = 2 once delta <= 1/8
(coarser two-agent windows rest on the cap's own slack).  One search can still
end later than a bisection whose midpoint lands in the window early.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import DomainError, ParameterRegimeError, SearchFailedError
from .oracle import Division, Instance, QueryLedger, cut_query, eval_query

#: Floating-point threshold below 1 at which the chain endpoint counts as "equals 1".
ONE_THRESHOLD = 1.0 - 1e-15

#: Narrowest search window: [1 - delta, 1) must span many doubles.
MIN_WINDOW = 1e-13

#: Halvings by which an interpolating search's bracket may trail bisection's (ITP's n0).
SLACK = 4

#: Relative residual up to which an agent's cut confirms the linear model fitted to its eval.
FIT_TOL = 1e-9

#: Newton or bisection steps of ``_model_probe``; it returns its last point if none lands.
MODEL_STEPS = 30


@dataclass(frozen=True)
class RippleDivision:
    cuts: tuple[float, ...]  # x_0 = 0, x_1, ..., x_n
    iterations_used: int
    own_values: tuple[float, ...] = ()  # Eval_i(x_i, x_{i+1}) of agents 0..n-2, as the chain asked them


@dataclass(frozen=True, init=False, repr=False, eq=False)  # frozen like Division
class Allocation(Division):
    """Contiguous allocation: agent i gets [cuts[i], cuts[i+1]], its one piece.  Only the
    cuts are stored: ``pieces`` derives from them, and equality and hash follow them."""

    def __init__(self, cuts):
        cuts = tuple(float(c) for c in cuts)
        if len(cuts) < 2 or cuts[0] != 0.0 or cuts[-1] != 1.0:
            raise DomainError("allocation cuts must start at 0 and end at 1")
        if any(a > b for a, b in zip(cuts, cuts[1:])):
            raise DomainError("allocation cuts must be nondecreasing")
        object.__setattr__(self, "cuts", cuts)

    @property
    def pieces(self) -> tuple[tuple[tuple[float, float]], ...]:
        return tuple((iv,) for iv in self.intervals())

    def intervals(self) -> list[tuple[float, float]]:
        return list(zip(self.cuts, self.cuts[1:]))

    def __eq__(self, other):
        return self.cuts == other.cuts if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self.cuts)

    def __repr__(self):
        return f"Allocation(cuts={self.cuts!r})"


def rd_chain(instance: Instance, x: float, ledger: QueryLedger,
             evals: list[float] | None = None) -> list[float]:
    """Chain points x_2, ..., x_n from first cut x_1 = x (n-1 cuts, n-1 evals).

    x_2 = Cut_1(x, Eval_1(0, x)); thereafter x_{i+1} makes agent i indifferent
    between [x_{i-1}, x_i] and [x_i, x_{i+1}].  Truncation at 1 propagates:
    a cut from 1 returns 1, so once a point is 1.0 the rest are 1.0 unasked.
    ``evals``, when given, receives each eval the chain asks, in agent order.
    """
    chain = []
    prev, cur = 0.0, x
    for agent in range(instance.n - 1):
        if cur == 1.0:
            chain += [1.0] * (instance.n - 1 - agent)
            break
        target = eval_query(instance, agent, prev, cur, ledger)
        if evals is not None:
            evals.append(target)
        prev, cur = cur, cut_query(instance, agent, cur, target, ledger)
        chain.append(cur)
    return chain


def iteration_cap(n: int, lam: float, delta: float) -> int:
    """BinSearch convergence bound ceil(2(n-1) log2(2*lambda/delta)), lambda finite."""
    if not (0.0 < lam < math.inf and 0.0 < delta < 1.0):
        raise DomainError(f"iteration_cap needs a positive finite lambda and delta in (0, 1), "
                          f"got lambda={lam}, delta={delta}")
    if n <= 1:
        return 0
    return math.ceil(2 * (n - 1) * math.log2(2.0 * lam / delta))


def ripple_window(eta: float, upper: float) -> float:
    """Search window delta for target envy ``eta`` under density upper bound ``upper``.

    The coalesced tail [x_n, 1] is at most delta long, so it is worth at most
    U * delta = eta to any agent.  The 0.5 ceiling keeps delta in (0, 1); the
    MIN_WINDOW floor keeps [1 - delta, 1) clear of float resolution near 1,
    and callers that need the eta bound reject eta / U below it.
    """
    return min(max(eta / upper, MIN_WINDOW), 0.5)


def _probe(left: float, right: float, points: list[tuple[float, float]], goal: float,
           k: int, w0: float, first: float) -> float:
    """Probe for step ``k`` (0-based) of a chain search on the bracket (left, right).

    ``points`` are the uncensored (x, value) pairs seen so far, at least one,
    oldest first, from a nondecreasing function.  Estimates of where the value reaches
    ``goal`` are, in turn, inverse quadratic interpolation through the last
    three points when their values increase strictly, the secant through the
    last two when theirs do, and the midpoint; from the start point alone, the
    caller's first probe ``first`` replaces the secant.  The first estimate
    inside the open bracket is projected onto midpoint +- r with
    r = w0 2**(SLACK - k - 1) - (right - left) / 2.  That keeps the bracket
    after step k at most 2**SLACK times bisection's w0 / 2**(k + 1).
    """
    mid = 0.5 * (left + right)
    r = w0 * 2.0 ** (SLACK - k - 1) - 0.5 * (right - left)
    if r <= 0.0:
        return mid  # the projection leaves only the midpoint, whatever the estimate
    x2, y2 = points[-1]  # read one by one: a slice costs more than an estimate
    est = math.nan  # each estimate is computed only if the one before is not inside
    if len(points) == 1:
        est = first
    elif points[-2][1] < y2:
        x1, y1 = points[-2]
        if len(points) >= 3 and points[-3][1] < y1:
            x0, y0 = points[-3]
            est = (x0 * (goal - y1) / (y0 - y1) * (goal - y2) / (y0 - y2)
                   + x1 * (goal - y0) / (y1 - y0) * (goal - y2) / (y1 - y2)
                   + x2 * (goal - y0) / (y2 - y0) * (goal - y1) / (y2 - y1))
        if not left < est < right:
            est = x2 + (goal - y2) * (x2 - x1) / (y2 - y1)
    if not left < est < right:  # a NaN is never inside
        return mid
    low, high = mid - r, mid + r
    return low if est < low else high if est > high else est


def bin_search(instance: Instance, delta: float, ledger: QueryLedger) -> RippleDivision:
    """Find a delta-ripple division by searching on the first cut point.

    Maintains RD_n(l) < 1 - delta and RD_n(r) = 1 and stops at the first
    probe whose chain endpoint lands in [1 - delta, 1).  Endpoint values
    >= 1 - 1e-15 are treated as "equals 1" (floating-point convention) and
    only move r; every other endpoint is exact and steers the next probe,
    which :func:`_probe` aims at 1 - delta/2, starting from RD_n(0) = 0.

    The first probe is (1 - delta/2) / n, exact when all n agents are
    uniform.  When a chain misses, its evals fit a linear density to each agent
    and its cuts check the fit; when every agent passes, the next probe is
    where the chain of those densities ends at 1 - delta/2 (exact when all the
    agents are linear), else the search interpolates as from any chain, and
    stops fitting once a chain that every agent cut for has failed the check.  A
    hit also returns the chain's evals, each agent i < n - 1's value of its
    own interval [x_i, x_{i+1}], so that callers need not ask them again.

    The search stops on a hit, or raises :class:`SearchFailedError` once l and
    r are adjacent doubles; its bracket trails bisection's by at most SLACK = 4
    halvings (see the module docstring), so it always gets there.
    """
    return _search(instance, delta, ledger, (1.0 - 0.5 * delta) / instance.n)


def _search(instance: Instance, delta: float, ledger: QueryLedger, first: float,
            max_iterations: int | None = None) -> RippleDivision:
    """:func:`bin_search` from the first probe ``first`` (PL-EF passes its model's probe);
    ``max_iterations``, when given, is a budget whose end also raises SearchFailedError.

    Every chain that misses the window is read for a linear model of its agents
    (:func:`_fitted_slopes`: each eval fits a slope, each cut checks it to a relative
    FIT_TOL); when every check passes, the next probe is where the model's chain ends
    at the goal (:func:`_model_probe`), in place of the interpolation from the points
    seen, and projected like any estimate.  When a check fails, as on curved densities,
    the search probes exactly as it would without the fit.  A fit after a later chain
    matters where an earlier one could not stand: a first chain that truncates leaves
    the agents after the cut that reached 1 unchecked, modelled as uniform.  Once a
    chain that ends below the window, so that every agent's check ran, declines the fit,
    no later chain is fitted: the densities are not all linear.  The fit and the model
    solve ask no query.
    """
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta={delta} outside (0, 1)")
    n = instance.n
    if n == 1:
        return RippleDivision((0.0, 1.0 - 0.5 * delta), 0)
    left, right = 0.0, 1.0
    points = [(0.0, 0.0)]  # uncensored (x_1, RD_n(x_1))
    goal = 1.0 - 0.5 * delta
    evals: list[float] = []  # the last chain's evals
    model = math.nan  # the model chain's first cut, once the last chain has proved it
    fitting = True  # until a chain that every agent cut for disproves the models
    for it in itertools.count(1) if max_iterations is None else range(1, max_iterations + 1):
        mid = 0.5 * (left + right)
        if mid <= left or mid >= right:  # left and right are adjacent doubles
            cap = "" if max_iterations is None else f" (cap {max_iterations})"
            raise SearchFailedError(
                f"bin_search ran out of float resolution at iteration {it}{cap}: "
                f"{left!r} and {right!r} are adjacent doubles and no chain endpoint hit [1-delta, 1)")
        if left < model < right:  # from the start point alone, _probe takes the model
            x = _probe(left, right, points[:1], goal, it - 1, 1.0, model)
        else:
            x = _probe(left, right, points, goal, it - 1, 1.0, first)
        model = math.nan  # a model aims one probe; the next chain's fit may aim another
        evals.clear()
        chain = rd_chain(instance, x, ledger, evals)
        endpoint = chain[-1]
        if endpoint < 1.0 - delta:
            left = x
            points.append((x, endpoint))
        elif endpoint >= ONE_THRESHOLD:
            right = x
        else:
            return RippleDivision((0.0, x, *chain), it, tuple(evals))
        if fitting:
            slopes = _fitted_slopes(n, x, chain, evals)
            if slopes is not None:
                model = _model_probe(slopes, delta)
            elif endpoint < 1.0 - delta:  # every agent's check ran, and one failed
                fitting = False
    raise SearchFailedError(
        f"bin_search exhausted {max_iterations} iterations without hitting [1-delta, 1)")


def _fitted_slopes(n: int, x: float, chain: list[float], evals: list[float]) -> list[float] | None:
    """Slopes s_i of linear models f_i(x) = 1 + s_i (x - 1/2) of the n - 1 cutting agents of
    the chain from x_1 = ``x``, fitted from its own queries, or None when they disprove it.

    Agent i's eval t_i = v_i(x_i, x_{i+1}) fixes s_i, as the model values [a, b] at
    (b - a)(1 + s_i (a + b - 1) / 2).  Its cut, v_i(x_{i+1}, x_{i+2}) = t_i, is a second
    equation that costs no query: the fit stands only if that equation holds to a relative
    FIT_TOL and |s_i| <= 2 (f_i >= 0; a fit within 2 FIT_TOL past +-2 is clamped, as float
    error moves an agent that touches 0 there), for every agent that has it, and at least
    one agent has it.  A truncated chain gives the agent whose cut reached 1 its eval
    alone, and the agents after it nothing: they are modelled as uniform (s = 0), as the
    first probe models every agent.
    """
    xs = (0.0, x, *chain)
    slopes = []
    checked = False
    for i, t in enumerate(evals):
        a, b, c = xs[i], xs[i + 1], xs[i + 2]
        if b <= a or a + b == 1.0:
            return None
        s = 2.0 * (t / (b - a) - 1.0) / (a + b - 1.0)
        if not abs(s) <= 2.0 + 2.0 * FIT_TOL:  # f_i >= 0 to the fit's tolerance; a NaN fails
            return None
        s = -2.0 if s < -2.0 else 2.0 if s > 2.0 else s
        if c < 1.0:
            if not abs((c - b) * (1.0 + 0.5 * s * (b + c - 1.0)) - t) <= FIT_TOL * t:
                return None
            checked = True
        slopes.append(s)
    return slopes + [0.0] * (n - 1 - len(slopes)) if checked else None


def _model_probe(slopes: list[float], delta: float) -> float:
    """The first cut x_1 at which the ripple chain of linear models of m agents ends at
    1 - delta/2; solved in floats, it asks no query.

    Agent i, in chain order, is modelled as f_i(x) = 1 + s_i (x - 1/2), where ``slopes``
    lists s_i, |s_i| <= 2, of the m - 1 agents that cut (the last agent cuts nothing).  Its
    prefix value is F_i(x) = x + s_i x (x - 1) / 2, and the chain steps
    x_{i+2} = F_i^{-1}(2 F_i(x_{i+1}) - F_i(x_i)), truncated at 1.

    The solve starts where m identical agents of the mean slope would end the chain at
    the goal (their chain has F(x_i) = i F(x_1)): exact for m = 2, and the search's
    uniform guess (1 - delta/2) / m when every slope is 0.  Newton's method then runs
    on the last cut's value F_{m-2}(x_m), smooth also where x_m passes 1, inside the
    bracket of the points seen; a chain truncated before its last cut is bisected.  It
    stops once that value lies within delta/4 of the goal's, scaled by f_{m-2} there;
    a Newton step from within the square root of that is taken unchecked, its error
    being quadratic; else after MODEL_STEPS chains.
    """
    goal = 1.0 - 0.5 * delta
    q = 0.5 * sum(slopes) / len(slopes)  # half the mean slope
    y = goal * (1.0 + q * (goal - 1.0)) / (len(slopes) + 1)
    b = 1.0 - q
    x = 2.0 * y / (b + math.sqrt(b * b + 4.0 * q * y))  # F^{-1}(y), without cancellation
    *inner, s = slopes
    h = 0.5 * s
    target = goal * (1.0 + h * (goal - 1.0))  # F_{m-2}(goal)
    tol = 0.25 * delta * (1.0 + s * (goal - 0.5))
    lo, hi = 0.0, 1.0
    for _ in range(MODEL_STEPS):
        prev, cur, d_prev, d_cur = 0.0, x, 0.0, 1.0  # chain points and their derivatives in x
        for r in inner:
            q = 0.5 * r
            y = 2.0 * cur * (1.0 + q * (cur - 1.0)) - prev * (1.0 + q * (prev - 1.0))
            if y >= 1.0:  # truncated: the chain ends at 1, past the goal
                hi, x = x, 0.5 * (lo + x)
                break
            d_y = 2.0 * (1.0 + r * (cur - 0.5)) * d_cur - (1.0 + r * (prev - 0.5)) * d_prev
            b = 1.0 - q
            root = b + math.sqrt(b * b + 4.0 * q * y)
            prev, cur = cur, 2.0 * y / root if root > 0.0 else 0.0
            f_cur = 1.0 + r * (cur - 0.5)
            d_prev, d_cur = d_cur, d_y / f_cur if f_cur > 0.0 else math.inf
        else:
            gap = 2.0 * cur * (1.0 + h * (cur - 1.0)) - prev * (1.0 + h * (prev - 1.0)) - target
            if abs(gap) <= tol:
                return x
            if gap < 0.0:
                lo = x
            else:
                hi = x
            d_y = 2.0 * (1.0 + s * (cur - 0.5)) * d_cur - (1.0 + s * (prev - 0.5)) * d_prev
            step = x - gap / d_y if 0.0 < d_y < math.inf else math.nan
            if not lo < step < hi:  # a NaN is never inside
                x = 0.5 * (lo + hi)
            elif gap * gap <= tol:
                return step
            else:
                x = step
    return x


def ripple_to_allocation(rd: RippleDivision) -> Allocation:
    """Coalesce the unassigned tail [x_n, 1] onto agent n."""
    return Allocation((*rd.cuts[:-1], 1.0))


def envy_free(instance: Instance, eta: float, ledger: QueryLedger) -> Allocation:
    """Allocation with v_i(I_i) >= v_i(I_j) - eta for all i, j (MLRP instance).

    Runs bin_search over :func:`ripple_window` and coalesces the tail onto
    the last agent.  Raises ParameterRegimeError, before any query, when
    eta / U is below MIN_WINDOW.
    """
    if not eta > 0.0:
        raise DomainError(f"eta={eta} must be positive")
    upper = instance.bounds.upper
    if eta / upper < MIN_WINDOW:
        raise ParameterRegimeError(
            f"eta / U = {eta / upper:.3g} is below {MIN_WINDOW}: the search window "
            f"[1 - eta / U, 1) is too narrow for float resolution; use a larger eta")
    return ripple_to_allocation(bin_search(instance, ripple_window(eta, upper), ledger))
