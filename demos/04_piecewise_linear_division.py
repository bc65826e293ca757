# Envy-free division for piecewise-linear densities
#
# Piecewise-linear densities need not satisfy MLRP, so the contiguous ripple
# machinery cannot be applied directly.  The recursive scheme halves the cake,
# runs the ripple search on each half with locally renormalized densities, and
# only recurses where a half contains breakpoints that break local MLRP.  The
# output is eta-envy-free with possibly disconnected pieces.

import math

import numpy as np

import fairslice as fs

tent = fs.PiecewiseLinear(breakpoints=(0.5,), slopes=(2.0, -2.0), intercepts=(0.25, 2.25))
vee = fs.PiecewiseLinear(breakpoints=(0.5,), slopes=(-2.0, 2.0), intercepts=(1.75, -0.25))
ramp = fs.Linear(1.0, 0.5)

instance = fs.Instance.from_densities([tent, vee, ramp])
eta = 1e-3

ledger = fs.QueryLedger()
division, stats = fs.pl_ef(instance, eta, ledger)

print("recursion:", stats)
print("queries:", ledger.as_dict())
for agent, pieces in enumerate(division.pieces):
    spans = ", ".join(f"[{l:.4f}, {r:.4f}]" for l, r in pieces)
    print(f"agent {agent}: {spans}")

matrix = fs.envy_matrix(instance, division)
print("value matrix:")
print(np.round(matrix.values, 5))
print("max envy:", matrix.max_envy, "<= eta:", matrix.max_envy <= eta)

cfg = fs.pl_config(eta, k=2, upper=instance.bounds.upper)
print(f"\nrecursion-node budget k(B+1) = {cfg.node_budget}, used {stats.node_count}")
print(f"per-agent piece budget 2k(B+1) = {2 * cfg.node_budget}, "
      f"used {division.max_pieces()}")

# the paper's bound is O(n^2 k log^2(kU/eta)) queries, against Kurokawa et al.'s O(n^6 k ln k)
n, k, q = instance.n, cfg.k, ledger.total()
print(f"constant C = q / (n^2 k log2^2(kU/eta)) = "
      f"{q / (n * n * k * math.log2(k * cfg.upper / eta) ** 2):.4f}")
print(f"q / (n^6 k ln k) = {q / (n ** 6 * k * math.log(k)):.4f}")
