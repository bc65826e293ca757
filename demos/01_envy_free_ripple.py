# Envy-free division via the ripple chain search
#
# Three agents with same-variance Gaussian tastes peaked at different spots
# of the cake.  Same variance means the densities satisfy the monotone
# likelihood ratio property, so a ripple division (each agent indifferent
# between its own interval and the next one) is automatically envy-free.

import numpy as np

import fairslice as fs

instance = fs.Instance.from_densities([
    fs.GaussianRestricted(mu=0.2, sigma=0.25),
    fs.GaussianRestricted(mu=0.5, sigma=0.25),
    fs.GaussianRestricted(mu=0.8, sigma=0.25),
])
print("density bounds:", instance.bounds)

# The chain: fixing the first cut x, every later cut is forced by the
# indifference condition v_i(x_{i-1}, x_i) = v_i(x_i, x_{i+1}).
ledger = fs.QueryLedger()
for x in (0.1, 0.2, 0.3):
    chain = fs.rd_chain(instance, x, ledger)
    print(f"first cut {x:.2f} -> chain endpoint {chain[-1]:.4f}")

# An interpolating search on the first cut drives the chain endpoint into
# [1 - delta, 1).
ledger = fs.QueryLedger()
allocation = fs.envy_free(instance, eta=1e-6, ledger=ledger)
print("\ncuts:", np.round(allocation.cuts, 6))
print("queries:", ledger.as_dict())

matrix = fs.envy_matrix(instance, allocation)
print("value matrix (rows = agents, columns = pieces):")
print(np.round(matrix.values, 6))
print("max envy:", matrix.max_envy)
assert matrix.max_envy <= 1e-6

# Four linear agents (slopes -1, 0, 0.5 and 1.5 in MLRP order): the first
# chain's evals fit each agent's slope, its cuts confirm the fit, and the
# second probe, where the chain of those linear models ends at the goal,
# settles the search on its second chain.
linear = fs.Instance.from_densities([
    fs.Linear(-1.0, 1.5), fs.Uniform(), fs.Linear(0.5, 0.75), fs.Linear(1.5, 0.25),
])
ledger = fs.QueryLedger()
ripple = fs.bin_search(linear, fs.ripple_window(1e-6, linear.bounds.upper), ledger)
allocation = fs.ripple_to_allocation(ripple)
envy = fs.envy_matrix(linear, allocation).max_envy
print("\nfour linear agents: cuts", np.round(allocation.cuts, 6))
print(f"queries: {ledger.as_dict()} over {ripple.iterations_used} chains; max envy: {envy}")
assert ripple.iterations_used == 2 and envy <= 1e-6

# A density that touches 0 has an infinite Lipschitz constant, but the search
# window needs only the upper bound U, so 2 - 2x against 2x divides alike.
up_down = fs.Instance.from_densities([fs.Linear(-2.0, 2.0), fs.Linear(2.0, 0.0)])
allocation = fs.envy_free(up_down, eta=1e-6, ledger=fs.QueryLedger())
envy = fs.envy_matrix(up_down, allocation).max_envy
print(f"\n(2 - 2x, 2x), lambda {up_down.bounds.lipschitz}: cuts", np.round(allocation.cuts, 6))
print("max envy:", envy)
assert envy <= 1e-6
