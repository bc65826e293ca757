"""Recursive envy-free division for piecewise-linear densities (possibly disconnected).

The driver halves the current interval; on each half it keeps only the agents
that value the half at least eta_hat, builds the local instance from their
densities restricted to the half (``restrict_unit`` reparametrizes each onto
the unit cake and normalizes it in one pass, so the instance takes them as
they are), guesses a local MLRP order, and runs the ripple search on the
window eta_hat / U of the local densities.  That search interpolates its probes
(``ripple._probe``, projected to stay within SLACK = 4 halvings of
bisection's bracket), so its worst case is SLACK iterations beyond what
bisection needs, under the same iteration cap.  If the search fails
(``SearchFailedError``) or the resulting local division fails an
eta_hat-envy audit, it recurses on that half.  Halves without breakpoints
have linear (hence MLRP) local densities, so they settle unless the search
runs out of float resolution; that bounds the recursion tree by k*(B+1)
nodes and the global envy by 2k(B+1) * eta_hat <= eta.  A linear piece
touching 0 (also where its restriction rounds that end to a few ulps below
0) has an infinite local Lipschitz constant, so its half searches under the
global iteration cap: the tent (PiecewiseLinear((0.5,), (2, -2),
(0, 2)), Uniform()) settles both halves at the root at eta = 1e-2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .density import as_piecewise_linear, restrict_unit
from .errors import DomainError, ParameterRegimeError, SearchFailedError
from .mlrp import detect_order
from .oracle import Instance, QueryLedger, eval_query
from .ripple import bin_search, ripple_to_allocation, ripple_window


@dataclass(frozen=True)
class PlConfig:
    """Derived parameters of a PL-EF run.

    ``lambda_pl = max{U, U/eta_hat, 1/eta_hat}`` and ``cap`` size the iteration
    cap of a half whose local Lipschitz constant is infinite; any other half
    takes bin_search's default cap from its own lambda.  Windows never read
    lambda: every half searches eta_hat / U of its local densities.
    """

    eta: float
    k: int
    upper: float
    eta_hat: float
    lambda_pl: float
    b_levels: float  # B = 2 log2(k U / eta_hat); recursion depth/count budget
    cap: int
    min_length: float  # base case: |b - a| <= eta^2 / (k^2 U^2)


def pl_config(eta: float, k: int, upper: float) -> PlConfig:
    if not 0.0 < eta < 1.0:
        raise DomainError(f"eta={eta} outside (0, 1)")
    if k < 1:
        raise DomainError(f"breakpoint count k={k} must be >= 1")
    upper = max(upper, 1.0)
    if k * upper / eta < 4.0:
        raise ParameterRegimeError(
            f"kU/eta = {k * upper / eta:.3g} < 4; the envy telescoping bound needs kU/eta >= 4")
    eta_hat = (eta / k) ** 2 / upper
    lambda_pl = max(upper, upper / eta_hat, 1.0 / eta_hat)
    return PlConfig(
        eta=eta,
        k=k,
        upper=upper,
        eta_hat=eta_hat,
        lambda_pl=lambda_pl,
        b_levels=2.0 * math.log2(k * upper / eta_hat),
        cap=math.ceil(2 * math.log2(2.0 * lambda_pl / eta_hat)),  # times n at use site
        min_length=(eta / (k * upper)) ** 2,
        )


@dataclass(frozen=True)
class Division:
    """Per-agent finite lists of disjoint intervals covering the cake."""

    pieces: tuple[tuple[tuple[float, float], ...], ...]

    @property
    def n(self) -> int:
        return len(self.pieces)

    def piece_lists(self) -> list[list[tuple[float, float]]]:
        return [list(p) for p in self.pieces]

    def max_pieces(self) -> int:
        return max(len(p) for p in self.pieces)


@dataclass
class RecursionStats:
    node_count: int = 0
    max_depth: int = 0
    small_interval_nodes: int = 0
    binsearch_hits: int = 0  # halves settled by the search (or trivially)
    recursed_halves: int = 0


def _merge_pieces(raw: list[list[tuple[float, float]]]) -> Division:
    merged = []
    for plist in raw:
        plist = sorted(plist)
        out: list[list[float]] = []
        for l, r in plist:
            if out and l <= out[-1][1] + 1e-12:
                out[-1][1] = max(out[-1][1], r)
            else:
                out.append([l, r])
        merged.append(tuple((l, r) for l, r in out))
    return Division(tuple(merged))


def pl_ef(instance: Instance, eta: float, ledger: QueryLedger) -> tuple[Division, RecursionStats]:
    """eta-envy-free cake division for piecewise-linear densities.

    Returns the division together with recursion statistics; the recursion
    tree has at most k*(B+1) nodes and every agent ends up with at most
    2k(B+1) intervals.
    """
    pls = [as_piecewise_linear(d) for d in instance.agents]
    n = instance.n
    k = max(sum(len(p.breakpoints) for p in pls), 1)
    cfg = pl_config(eta, k, instance.bounds.upper)
    global_cap = n * cfg.cap

    pieces: list[list[tuple[float, float]]] = [[] for _ in range(n)]
    stats = RecursionStats()

    def solve_half(lo: float, hi: float) -> bool:
        """Try to settle [lo, hi] without recursing; True on success."""
        values = [eval_query(instance, i, lo, hi, ledger) for i in range(n)]
        keep = [i for i in range(n) if values[i] >= cfg.eta_hat]
        if not keep:
            pieces[0].append((lo, hi))  # everyone values the half below eta_hat
            return True
        if len(keep) == 1:
            pieces[keep[0]].append((lo, hi))
            return True
        local = Instance.from_densities([restrict_unit(pls[i], lo, hi) for i in keep],
                                        normalize=False)  # restrict_unit normalizes
        order = detect_order(local, ledger)
        local = local.reordered(order)
        agents = [keep[o] for o in order]  # local rank -> global agent

        # a density touching 0 on this half has infinite local lambda: global cap
        cap = None if math.isfinite(local.bounds.lipschitz) else global_cap
        try:
            cuts = ripple_to_allocation(bin_search(
                local, ripple_window(cfg.eta_hat, local.bounds.upper), ledger, max_iterations=cap)).cuts
        except SearchFailedError:
            return False

        m = len(agents)
        own = [eval_query(local, i, cuts[i], cuts[i + 1], ledger) for i in range(m)]
        for i in range(m):
            bound = own[i] + cfg.eta_hat + 1e-12
            for j in range(m):
                if j != i and eval_query(local, i, cuts[j], cuts[j + 1], ledger) > bound:
                    return False

        width = hi - lo
        for rank, agent in enumerate(agents):
            a, b = cuts[rank], cuts[rank + 1]
            if b > a:
                pieces[agent].append((lo + a * width, lo + b * width))
        return True

    def recurse(lo: float, hi: float, depth: int) -> None:
        stats.node_count += 1
        stats.max_depth = max(stats.max_depth, depth)
        if hi - lo <= cfg.min_length:
            stats.small_interval_nodes += 1
            pieces[0].append((lo, hi))
            return
        mid = 0.5 * (lo + hi)
        for a, b in ((lo, mid), (mid, hi)):
            if solve_half(a, b):
                stats.binsearch_hits += 1
            else:
                stats.recursed_halves += 1
                recurse(a, b, depth + 1)

    recurse(0.0, 1.0, 1)
    return _merge_pieces(pieces), stats
