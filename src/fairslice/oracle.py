"""Robertson-Webb query layer: per-agent Eval and Cut over an instance.

Algorithms access agents' valuations exclusively through :func:`eval_query`
and :func:`cut_query`, each of which increments the run's :class:`QueryLedger`
so that query-complexity bounds are testable.  The audit module is the only
place allowed to bypass this layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .density import Density, DensityBounds
from .errors import DomainError

__all__ = ["Division", "Instance", "QueryLedger", "eval_query", "cut_query"]


@dataclass
class QueryLedger:
    """Counters of cut/eval queries issued against the oracle."""

    eval_count: int = 0
    cut_count: int = 0

    def total(self) -> int:
        return self.eval_count + self.cut_count

    def as_dict(self) -> dict:
        return {"eval": self.eval_count, "cut": self.cut_count}


@dataclass(frozen=True)
class Instance:
    """A cake-division instance: normalized densities in MLRP index order.

    ``bounds`` aggregates the per-agent density bounds (L = min over agents,
    U = max over agents); its ``lipschitz`` computes the induced query
    Lipschitz constant max{1/L, U, U/L} — infinite when some density touches zero.
    """

    agents: tuple[Density, ...]
    bounds: DensityBounds

    @property
    def n(self) -> int:
        return len(self.agents)

    @classmethod
    def from_densities(cls, densities, normalize: bool = True) -> "Instance":
        specs = tuple(d.normalized() if normalize else d for d in densities)
        if not specs:
            raise DomainError("an instance needs at least one agent")
        lows, highs = zip(*[d._bounds_pair() for d in specs])  # bounds(), without a DensityBounds each
        return cls(specs, DensityBounds(min(lows), max(highs)))

    def reordered(self, order) -> "Instance":
        """Same instance with agents permuted (order[k] = original index of rank k)."""
        if sorted(order) != list(range(self.n)):
            raise DomainError(f"{order} is not a permutation of 0..{self.n - 1}")
        return Instance(tuple(self.agents[i] for i in order), self.bounds)


@dataclass(frozen=True)
class Division:
    """Per agent, a tuple of disjoint (l, r) intervals; together they cover the cake.
    A contiguous ``ripple.Allocation`` is the case of one piece per agent."""

    pieces: tuple[tuple[tuple[float, float], ...], ...]

    @property
    def n(self) -> int:
        return len(self.pieces)

    def piece_lists(self) -> list[list[tuple[float, float]]]:
        return [list(p) for p in self.pieces]

    def max_pieces(self) -> int:
        return max(len(p) for p in self.pieces)


# The two queries below are the hot path of every algorithm: each checks the
# agent index inline and makes one density call.


def eval_query(instance: Instance, i: int, l: float, r: float, ledger: QueryLedger) -> float:
    """Eval_i(l, r) = v_i([l, r]); one ledger tick."""
    agents = instance.agents
    if not 0 <= i < len(agents):
        raise DomainError(f"agent index {i} out of range for n={len(agents)}")
    ledger.eval_count += 1
    return agents[i].measure(l, r)


def cut_query(instance: Instance, i: int, l: float, tau: float, ledger: QueryLedger) -> float:
    """Cut_i(l, tau): leftmost y with v_i(l, y) = tau, truncated to 1; one ledger tick."""
    agents = instance.agents
    if not 0 <= i < len(agents):
        raise DomainError(f"agent index {i} out of range for n={len(agents)}")
    ledger.cut_count += 1
    return agents[i].inverse_measure(l, tau)
