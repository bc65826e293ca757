"""Recursive envy-free division for piecewise-linear densities (possibly disconnected).

``pl_ef`` is PL-EF(a, b): a node halves [a, b], and each half either settles
or becomes a node one level down.  A half keeps only the agents that value it
at least the drop value e_d, restricts their densities to it
(``restrict_unit`` reparametrizes each onto the unit cake and normalizes it in
one pass), ranks them by ``detect_order`` on ``Instance.from_densities`` of the
restrictions, reorders that instance, and runs the ripple search on the window
``ripple_window(e_a, U_local)``, e_a = eta/3, of the local densities; only the
order, the search and the audit ask queries.  The search's
first probe comes from a model (``ripple._model_probe``, which also aims
``bin_search``'s probes after chains that fit one): each kept agent's local density is taken to be
linear, f_i(x) = 1 + s_i(x - 1/2) with s_i = 8(t_i - 1/2) and t_i its
``detect_order`` tail clamped to [1/4, 3/4], and the probe is where the ripple
chain of those models ends at 1 - delta/2, solved in floats without a query.  On a half
without a breakpoint the model is the density, so the first chain hits unless
float error moves its end out of the window.  The search then interpolates its
probes (``ripple._probe``, projected to stay within SLACK = 4 halvings of
bisection's bracket), so its worst case is SLACK iterations beyond what
bisection needs, under the same iteration cap.
If the search fails (``SearchFailedError``) or some kept agent's local envy
exceeds e_a + AUDIT_SLACK, the half becomes a node that carries only its kept
agents, whose values of its two halves follow from their value v of it and
their tails t without a query: v - v t and v t.  The audit
asks each kept agent its prefix values at the half's interior cuts, and takes
those the chain already answered from it: m^2 - 3m + 3 evals for a half of
m agents that passes (``_envious``).  The root asks each agent v_i(0.5, 1)
alone, n evals, and takes v_i(0, 0.5) as 1 - v_i(0.5, 1), the instance's
densities being normalized.  Agents need no global order: each half ranks its
own.  Halves without breakpoints have linear (hence MLRP) local densities, so
they settle unless the search runs out of float resolution; a level below the
root then holds at most k recursed halves.  B is the first depth whose nodes,
2^(1-B) long, are worth U 2^(1-B) < e_d = eta / (6k(B+1)); a node at depth
d > 1 is a half, 2^(1-d) long, that kept two agents valuing it at least e_d,
so no node reaches depth B, and the tree has at most k(B+1) nodes.  ``pl_ef``
stops with ``SearchFailedError`` once it passes that node budget, so the count
holds unconditionally, also should a rounded value estimate keep an agent past B.

Envy bound, in three shares of eta/3.  Every settled half is a leaf; leaves
are disjoint and cover the cake, and an agent's envy of another is the sum
over leaves of its value of the other's part minus its value of its own part.
- Audited halves.  A kept agent's local densities are its own, divided by its
  value v_i(half) of the half, so a local envy e costs e * v_i(half)
  globally.  The audit holds e to e_a + AUDIT_SLACK; over disjoint halves the
  v_i(half) sum to at most 1, so these leaves add at most e_a = eta/3 plus
  the slack, however many settle.
- Unaudited leaves, of two kinds: a half an agent was dropped from, and a
  one-agent or empty half.  On such a leaf an agent either holds all of it
  (the one kept agent; agent 0 of an empty half) and envies no one there, or
  values it below e_d.  A tree of at most k(B+1) nodes, each with two halves,
  has at most 2k(B+1) halves, so these add less than 2k(B+1) e_d = eta/3.
- Audit slack.  The 1e-12 slack added over the audited halves is at most
  eta/3; ``pl_config`` rejects a smaller eta.
So every agent's envy is at most eta, and every agent holds at most one
interval per leaf, 2k(B+1) in all.

Every half searches under one iteration cap, n * ``PlConfig.cap``: the
paper's "specified number of iterations", the same count whatever the half's
own Lipschitz constant.  That includes a linear piece touching 0 (also where
its restriction rounds that end to a few ulps below 0), whose local constant
is infinite: the tent (PiecewiseLinear((0.5,), (2, -2), (0, 2)), Uniform())
settles both halves at the root at eta = 1e-2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .density import as_piecewise_linear, restrict_unit
from .errors import DomainError, ParameterRegimeError, SearchFailedError
from .mlrp import detect_order
from .oracle import Division, Instance, QueryLedger, eval_query
from .ripple import RippleDivision, _model_probe, _search, iteration_cap, ripple_window
from .ripple import bin_search  # noqa: F401  unused; perfbench's tracer patches plef.bin_search


#: Local envy an audited half may keep beyond e_a, for the float error of its queries.
AUDIT_SLACK = 1e-12

#: Deepest B (the root is depth 1): the nodes PL-EF halves, at depths below B, are
#: at least 2^-52 long and dyadic, so their midpoints are exact doubles.
MAX_DEPTH = 54



@dataclass(frozen=True)
class PlConfig:
    """Derived parameters of a PL-EF run (the module docstring proves the bound).

    ``lambda_pl = max{U, U/drop_value, 1/drop_value}`` bounds the local
    Lipschitz constant of a kept agent, and ``cap`` is the iterations two
    such agents need on the narrowest window; times n it caps the search of
    every half, the same cap whatever the half's own lambda.
    """

    eta: float
    k: int
    upper: float
    audit_envy: float  # e_a = eta / 3: local envy an audited half may keep
    drop_value: float  # e_d = eta / (6 node_budget): an agent valuing a half less is dropped
    b_levels: int  # B: no half at depth B (root at 1) keeps two agents, so no node is that deep
    node_budget: int  # k(B+1): the recursion tree's node count
    min_length: float  # 2^(1-B), with U * min_length < drop_value
    lambda_pl: float
    cap: int


def pl_config(eta: float, k: int, upper: float) -> PlConfig:
    if not 0.0 < eta < 1.0:
        raise DomainError(f"eta={eta} outside (0, 1)")
    if k < 1:
        raise DomainError(f"breakpoint count k={k} must be >= 1")
    upper = max(upper, 1.0)
    if k * upper / eta < 4.0:
        raise ParameterRegimeError(
            f"kU/eta = {k * upper / eta:.3g} < 4; PL-EF runs in the regime kU/eta >= 4")
    if 3.0 * AUDIT_SLACK > eta:
        raise ParameterRegimeError(
            f"eta={eta:.3g} < {3.0 * AUDIT_SLACK:.3g}: the audit slack {AUDIT_SLACK:g} "
            f"per half would exceed eta/3")
    for b_levels in range(1, MAX_DEPTH + 1):
        node_budget = k * (b_levels + 1)
        drop_value = eta / (6.0 * node_budget)
        min_length = 2.0 ** (1 - b_levels)
        if upper * min_length < drop_value:
            break
    else:
        raise ParameterRegimeError(
            f"eta={eta:.3g} with kU = {k * upper:.3g} needs halves shorter than 2^-53, "
            f"the spacing of doubles in [0.5, 1); use a larger eta")
    audit_envy = eta / 3.0
    lambda_pl = max(upper, upper / drop_value, 1.0 / drop_value)
    return PlConfig(
        eta=eta,
        k=k,
        upper=upper,
        audit_envy=audit_envy,
        drop_value=drop_value,
        b_levels=b_levels,
        node_budget=node_budget,
        min_length=min_length,
        lambda_pl=lambda_pl,
        cap=iteration_cap(2, lambda_pl, ripple_window(audit_envy, lambda_pl)),  # times n at use site
        )


@dataclass
class RecursionStats:
    node_count: int = 0
    max_depth: int = 0
    binsearch_hits: int = 0  # halves settled by the search (or trivially)
    recursed_halves: int = 0
    breakpoint_free_recursions: int = 0  # recursed halves with no agent breakpoint inside


def _envious(local: Instance, rd: RippleDivision, envy: float, ledger: QueryLedger) -> bool:
    """True iff some agent of ``local`` values another's piece of ``rd``'s allocation above
    its own plus ``envy`` + AUDIT_SLACK; agents are checked in rank order, up to the first
    that envies.

    Agent i is asked its prefix values P_i(c_j) = v_i(0, c_j) at the interior cuts, and a
    piece's value is P_i(c_{j+1}) - P_i(c_j).  Some need no query: P_i(0) = 0 and P_i(1) = 1,
    as ``restrict_unit`` normalizes every local density; for i < m - 1, the chain's eval
    t_i = v_i(c_i, c_{i+1}) gives P_i(c_{i+1}) = P_i(c_i) + t_i (so P_0(c_1) = t_0), and where
    i + 2 <= m - 1, P_i(c_{i+2}) = P_i(c_{i+1}) + t_i, since agent i's cut of t_i made c_{i+2}
    (on a hit no cut is truncated).  A passing half of m agents costs m^2 - 3m + 3 evals.  A
    prefix difference is off by a few ulps, far inside AUDIT_SLACK.  One pass over the pieces
    keeps the largest and the agent's own.
    """
    m, cuts, t = local.n, rd.cuts, rd.own_values  # the interior cuts are the allocation's
    for i in range(m):
        prev, top = 0.0, -math.inf  # P_i(c_{j-1}), and the largest piece so far
        for j in range(1, m + 1):
            if j == m:
                p = 1.0
            elif i < m - 1 and (j == i + 1 or j == i + 2):
                p = prev + t[i]
            else:
                p = eval_query(local, i, 0.0, cuts[j], ledger)
            piece = p - prev
            if piece > top:
                top = piece
            if j == i + 1:
                own = piece
            prev = p
        if top > own + envy + AUDIT_SLACK:
            return True
    return False


def pl_ef(instance: Instance, eta: float, ledger: QueryLedger) -> tuple[Division, RecursionStats]:
    """eta-envy-free cake division for piecewise-linear densities.

    Returns the division together with recursion statistics.  The envy bound
    splits eta into three shares of eta/3 (the module docstring has the
    proof): audited halves keep local envy e_a = eta/3, which costs each
    agent its value of the half times that, eta/3 over all of them; each of
    the at most 2k(B+1) unaudited leaves is worth less than
    e_d = eta / (6k(B+1)) to every agent it can make envious; and the audit's
    1e-12 slack is at most eta/3.  The recursion tree has at most
    ``cfg.node_budget`` = k(B+1) nodes: one more raises ``SearchFailedError``
    naming the budget.  Every agent ends up with at most 2k(B+1) intervals.
    The agents need no order: piece lists follow the instance's agents as listed.
    """
    pls = [as_piecewise_linear(d) for d in instance.agents]
    n = instance.n
    breakpoints = [p for pl in pls for p in pl.breakpoints]
    k = max(len(breakpoints), 1)
    cfg = pl_config(eta, k, instance.bounds.upper)

    pieces: list[list[tuple[float, float]]] = [[] for _ in range(n)]
    stats = RecursionStats()

    def give(agent: int, l: float, r: float) -> None:
        """Pieces arrive left to right (depth first, left half first): one that starts
        within 1e-12 of the agent's last piece extends it."""
        own = pieces[agent]
        if own and l <= own[-1][1] + 1e-12:
            own[-1] = (own[-1][0], r)
        else:
            own.append((l, r))

    def node(lo: float, hi: float, depth: int, agents: list[tuple[int, float, float]]) -> None:
        """PL-EF(lo, hi): settle or split each half of [lo, hi].

        ``agents`` lists the agents kept on [lo, hi], in ascending index order, as
        (i, v, t): v is agent i's value of [lo, hi] and t its local value of the right
        half, so it values the halves at v - v t and v t without a query.  Each half
        keeps the agents that value it at least e_d.
        """
        stats.node_count += 1
        if stats.node_count > cfg.node_budget:
            raise SearchFailedError(
                f"PL-EF passed its node budget k(B+1) = {cfg.node_budget} "
                f"(k={cfg.k}, B={cfg.b_levels}): halves without breakpoints keep failing to settle")
        stats.max_depth = max(stats.max_depth, depth)
        mid, drop = 0.5 * (lo + hi), cfg.drop_value
        half(lo, mid, depth, [(i, w) for i, v, t in agents if (w := v - v * t) >= drop])
        half(mid, hi, depth, [(i, w) for i, v, t in agents if (w := v * t) >= drop])

    def half(a: float, b: float, depth: int, kept: list[tuple[int, float]]) -> None:
        """Settle [a, b] among ``kept``, the (i, v) pairs of the agents valuing it at v >= e_d,
        or make it a node one level below ``depth``.

        The kept agents' densities are restricted to [a, b], ranked by ``detect_order`` and
        searched from the model probe (``_model_probe``), so a half without a breakpoint
        settles on its first chain but for float error.  A settled half costs m evals for
        the order, the search's chains, and m^2 - 3m + 3 evals for the audit of m agents
        (``_envious``); its restrictions, local instance and pieces ask none.
        """
        if len(kept) <= 1:  # agent 0 takes a half that everyone values below e_d
            give(kept[0][0] if kept else 0, a, b)
            stats.binsearch_hits += 1
            return
        specs = [restrict_unit(pls[i], a, b) for i, _ in kept]
        local = Instance.from_densities(specs, normalize=False)
        tails: list[float] = []
        order = detect_order(local, ledger, tails)
        local = local.reordered(order)
        delta = ripple_window(cfg.audit_envy, local.bounds.upper)
        slopes = [8.0 * (min(max(tails[o], 0.25), 0.75) - 0.5) for o in order[:-1]]
        try:
            rd = _search(local, delta, ledger, _model_probe(slopes, delta),
                         max_iterations=n * cfg.cap)
        except SearchFailedError:
            rd = None
        if rd is not None and not _envious(local, rd, cfg.audit_envy, ledger):
            stats.binsearch_hits += 1
            cuts, width = (*rd.cuts[:-1], 1.0), b - a  # the last agent takes the tail [x_m, 1]
            for rank, o in enumerate(order):
                if cuts[rank + 1] > cuts[rank]:
                    give(kept[o][0], a + cuts[rank] * width, a + cuts[rank + 1] * width)
            return
        stats.recursed_halves += 1
        # the paper's lemma: only a half with a breakpoint inside recurses
        stats.breakpoint_free_recursions += not any(a < p < b for p in breakpoints)
        node(a, b, depth + 1, [(i, v, t) for (i, v), t in zip(kept, tails)])

    tails = [eval_query(instance, i, 0.5, 1.0, ledger) for i in range(n)]
    node(0.0, 1.0, 1, [(i, 1.0, t) for i, t in enumerate(tails)])
    return Division(tuple(map(tuple, pieces))), stats
