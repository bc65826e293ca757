# Social, egalitarian, and Nash welfare maximization
#
# The running pair: a uniform agent against f(x) = 3x^2.  All three optima
# have closed forms, so the envelope, the moving-knife search and the
# certified Nash route can be checked against both analysis and the
# brute-force grid oracle.

import math

import fairslice as fs

instance = fs.Instance.from_densities([
    fs.Uniform(),
    fs.BinomialPoly(3.0, 0.0, 2, 0),  # 3x^2
])

# Social welfare: the optimum is the integral of the upper envelope of the
# densities, and its cut is where they cross, here 3x^2 = 1 at x = 1/sqrt(3).
# A golden-section search on prefix values finds that switching point; no
# dynamic program follows.
ledger = fs.QueryLedger()
alloc, sw = fs.max_social_welfare(instance, eta=1e-4, ledger=ledger)
print(f"SW cut {alloc.cuts[1]:.6f}  (analytic {1/math.sqrt(3):.6f})")
print(f"SW value {sw:.6f}  oracle {fs.brute_force_optimum(instance, 'sw', 2000):.6f}")

# Egalitarian welfare: moving-knife feasibility is monotone in the target
# value, so a search over multiples of eta finds the best share floor.
ledger = fs.QueryLedger()
alloc, ew = fs.max_egalitarian(instance, eta=1e-4, ledger=ledger)
print(f"\nEW value {ew:.4f}  cut {alloc.cuts[1]:.4f}  "
      f"(analytic root of c = 1 - c^3 is 0.682328)")

run = fs.mk_chain(instance, tau=0.5, ledger=fs.QueryLedger())
print("moving knife at tau=0.5:", run.knives, "feasible:", run.feasible)
run = fs.mk_chain(instance, tau=0.9, ledger=fs.QueryLedger())
print("moving knife at tau=0.9:", run.knives, "feasible:", run.feasible)

# Nash welfare: coordinate ascent on the cut by golden-section search, then
# the Eisenberg-Gale certificate, one envelope pass of the densities scaled by
# 1/u_i, tried after every sweep, so the cut is only as fine as eps needs; an
# uncertified run would fall back to the product-form DP over a grid whose every
# cell is worth at most eps/8n to every agent.
ledger = fs.QueryLedger()
alloc, nsw = fs.max_nash(instance, epsilon=0.02, ledger=ledger)
print(f"\nNSW value {nsw:.6f}  oracle {fs.brute_force_optimum(instance, 'nsw', 2000):.6f}")
print(f"NSW cut {alloc.cuts[1]:.6f}  (analytic 4^(-1/3) = {4 ** (-1/3):.6f})")
print("Nash queries:", ledger.as_dict())

# Repairing an out-of-order division: the quadratic agent holds the left
# half, the uniform agent the right.  One cut query swaps them about the
# point where the quadratic agent keeps its old share, improving both.
before = [(0.5, 1.0), (0.0, 0.5)]
after = fs.reorder_to_mlrp(instance, before, fs.QueryLedger())
print("\nreordered pieces:", after, " (split at 2^(-1/3) =", round(2 ** (-1 / 3), 6), ")")
