import ast
import inspect
import math

import numpy as np
import pytest

from fairslice import (
    Allocation,
    BinomialPoly,
    Division,
    Instance,
    Linear,
    PiecewiseConstant,
    QueryLedger,
    Uniform,
    brute_force_optimum,
    envy_free,
    envy_matrix,
    is_perfect,
    pareto_dominated_on_grid,
    welfare_metrics,
)
from fairslice import audit, density, mlrp, oracle, plef, ripple, welfare
from fairslice.audit import _prefix_table, egalitarian_optimum, social_optimum
from fairslice.errors import InvalidDivisionError, UnsupportedSizeError
from gen import mlrp_instance, piecewise_linear_instance

QUAD = BinomialPoly(3.0, 0.0, 2, 0)


def two_step_instance(alpha):
    f1 = PiecewiseConstant((1.0 - alpha,), (1.0 + alpha, alpha))
    f2 = PiecewiseConstant((1.0 - alpha,), (1.0 - alpha, 2.0 - alpha))
    return Instance.from_densities([f1, f2], normalize=False)


def two_step_perfect_division(alpha):
    lo, hi = 0.5 - alpha / 2.0, 1.0 - alpha / 2.0
    return [[(lo, hi)], [(0.0, lo), (hi, 1.0)]]


def enumeration_optimum(prefix, objective):
    """Reference for brute_force_optimum: every cut tuple evaluated exhaustively, n <= 4."""
    n, tt = prefix.shape

    def combine(values):  # values: list of n broadcastable arrays
        stack = np.broadcast_arrays(*values)
        if objective == "sw":
            return sum(stack)
        if objective == "ew":
            return np.minimum.reduce(stack)
        prod = np.ones_like(stack[0])
        for v in stack:
            prod = prod * np.maximum(v, 0.0)
        return prod ** (1.0 / n)

    if n == 1:
        return float(combine([np.array(prefix[0, -1])]))
    if n == 2:
        return float(combine([prefix[0], prefix[1, -1] - prefix[1]]).max())
    t1, t2 = np.meshgrid(np.arange(tt), np.arange(tt), indexing="ij")
    if n == 3:
        vals = combine([prefix[0][:, None], prefix[1][None, :] - prefix[1][:, None],
                        (prefix[2, -1] - prefix[2])[None, :]])
        return float(np.where(t1 <= t2, vals, -np.inf).max())
    assert n == 4
    best = -np.inf
    for c1 in range(tt):
        vals = combine([np.array(prefix[0, c1]), prefix[1][:, None] - prefix[1, c1],
                        prefix[2][None, :] - prefix[2][:, None], (prefix[3, -1] - prefix[3])[None, :]])
        best = max(best, float(np.where((c1 <= t1) & (t1 <= t2), vals, -np.inf).max()))
    return best


def enumeration_dominated(prefix, own):
    """Reference for pareto_dominated_on_grid: every cut tuple checked, n in {2, 3}."""
    n, tt = prefix.shape
    if n == 2:
        v = [prefix[0], prefix[1, -1] - prefix[1]]
    else:
        assert n == 3
        v = [np.broadcast_to(prefix[0][:, None], (tt, tt)),
             prefix[1][None, :] - prefix[1][:, None],
             np.broadcast_to((prefix[2, -1] - prefix[2])[None, :], (tt, tt))]
        t1, t2 = np.meshgrid(np.arange(tt), np.arange(tt), indexing="ij")
        v = [np.where(t1 <= t2, x, -np.inf) for x in v]
    weak = np.ones_like(v[0], dtype=bool)
    strict = np.zeros_like(v[0], dtype=bool)
    for i in range(n):
        weak &= v[i] >= own[i] - 1e-12
        strict |= v[i] > own[i] + 1e-9
    return bool((weak & strict).any())


def random_division(n, rng):
    """n contiguous pieces at random cuts, handed to the agents in a random order."""
    cuts = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, n - 1)), [1.0]))
    return [[(float(cuts[j]), float(cuts[j + 1]))] for j in rng.permutation(n)]


class TestEnvyMatrix:
    def test_thirds_uniform(self):
        inst = Instance.from_densities([Uniform()] * 3)
        alloc = Allocation((0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0))
        em = envy_matrix(inst, alloc)
        assert np.allclose(em.values, 1.0 / 3.0)
        assert em.max_envy == pytest.approx(0.0, abs=1e-15)

    def test_halves_uniform_quadratic(self):
        # quadratic agent holds the left half, so it envies the right half by 0.75
        inst = Instance.from_densities([Uniform(), QUAD])
        em = envy_matrix(inst, [[(0.5, 1.0)], [(0.0, 0.5)]])
        assert em.values[0].tolist() == pytest.approx([0.5, 0.5], abs=1e-14)
        assert em.values[1].tolist() == pytest.approx([0.875, 0.125], abs=1e-14)
        assert em.max_envy == pytest.approx(0.75, abs=1e-14)

    def test_identity_halves_no_envy(self):
        inst = Instance.from_densities([Uniform(), QUAD])
        em = envy_matrix(inst, Allocation((0.0, 0.5, 1.0)))
        assert em.max_envy == pytest.approx(0.0, abs=1e-14)

    def test_two_step_perfect_entries(self):
        inst = two_step_instance(0.4)
        em = envy_matrix(inst, two_step_perfect_division(0.4))
        assert np.allclose(em.values, 0.5, atol=1e-12)

    def test_row_sums_cover(self):
        rng = np.random.default_rng(3)
        inst = mlrp_instance(3, rng)
        alloc = envy_free(inst, 1e-6, QueryLedger())
        em = envy_matrix(inst, alloc)
        assert np.allclose(em.values.sum(axis=1), 1.0, atol=1e-9)

    def test_allocation_division_and_raw_lists_agree(self):
        inst = Instance.from_densities([Uniform(), QUAD, Linear(1.0, 0.5)])
        alloc = Allocation((0.0, 0.3, 0.7, 1.0))
        expected = envy_matrix(inst, alloc)
        for same in (Division(alloc.pieces), [[(0.0, 0.3)], [(0.3, 0.7)], [(0.7, 1.0)]]):
            em = envy_matrix(inst, same)
            assert em.values.tolist() == expected.values.tolist()
            assert em.max_envy == expected.max_envy

    def test_overlap_rejected(self):
        inst = Instance.from_densities([Uniform(), Uniform()])
        with pytest.raises(InvalidDivisionError):
            envy_matrix(inst, [[(0.0, 0.6)], [(0.5, 1.0)]])


class TestWelfareMetrics:
    def test_thirds(self):
        inst = Instance.from_densities([Uniform()] * 3)
        sw, ew, nsw = welfare_metrics(inst, Allocation((0.0, 1 / 3, 2 / 3, 1.0)))
        assert (sw, ew, nsw) == pytest.approx((1.0, 1 / 3, 1 / 3), abs=1e-12)

    def test_single_agent(self):
        inst = Instance.from_densities([Uniform()])
        assert welfare_metrics(inst, Allocation((0.0, 1.0))) == pytest.approx((1.0, 1.0, 1.0))

    def test_halves_mixed(self):
        inst = Instance.from_densities([Uniform(), QUAD])
        sw, ew, nsw = welfare_metrics(inst, Allocation((0.0, 0.5, 1.0)))
        assert sw == pytest.approx(0.5 + 0.875, abs=1e-14)
        assert ew == pytest.approx(0.5, abs=1e-14)
        assert nsw == pytest.approx(math.sqrt(0.4375), abs=1e-12)

    def test_zero_bundle_nsw(self):
        inst = Instance.from_densities([Uniform(), Uniform()])
        assert welfare_metrics(inst, Allocation((0.0, 0.0, 1.0)))[2] == 0.0


class TestBruteForce:
    def test_sw_uniform_quadratic(self):
        inst = Instance.from_densities([Uniform(), QUAD])
        assert brute_force_optimum(inst, "sw", 2000) == pytest.approx(1.38490, abs=1e-3)

    def test_ew_two_uniform(self):
        inst = Instance.from_densities([Uniform(), Uniform()])
        m = 400
        assert brute_force_optimum(inst, "ew", m) == pytest.approx(0.5, abs=1.0 / m)

    def test_nsw_uniform_quadratic(self):
        inst = Instance.from_densities([Uniform(), QUAD])
        assert brute_force_optimum(inst, "nsw", 2000) == pytest.approx(0.68743, abs=1e-3)

    def test_monotone_in_m_nested(self):
        inst = Instance.from_densities([Uniform(), QUAD])
        for objective in ("sw", "ew", "nsw"):
            coarse = brute_force_optimum(inst, objective, 250)
            fine = brute_force_optimum(inst, objective, 500)
            assert fine >= coarse - 1e-12

    def test_three_agents(self):
        inst = Instance.from_densities([Uniform()] * 3)
        assert brute_force_optimum(inst, "ew", 300) == pytest.approx(1 / 3, abs=1 / 300)

    def test_four_agents_small_grid(self):
        inst = Instance.from_densities([Uniform()] * 4)
        assert brute_force_optimum(inst, "ew", 80) == pytest.approx(0.25, abs=1 / 80)

    def test_egalitarian_optimum_at_least_the_grid_optimum(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 4, 5):
            for _ in range(3):
                inst = mlrp_instance(n, rng)
                assert egalitarian_optimum(inst) >= brute_force_optimum(inst, "ew", 400)

    def test_egalitarian_optimum_of_equal_agents(self):
        assert egalitarian_optimum(Instance.from_densities([Uniform()])) == 1.0
        assert egalitarian_optimum(Instance.from_densities([Uniform()] * 2)) == 0.5
        assert egalitarian_optimum(Instance.from_densities([Uniform()] * 3)) == pytest.approx(1 / 3, abs=1e-15)

    def test_social_optimum_at_least_the_grid_optimum(self):
        rng = np.random.default_rng(8)
        for n in (2, 3, 4, 5):
            for _ in range(3):
                inst = mlrp_instance(n, rng)
                # both sums of measures, each a few rounding errors of 1 off
                assert social_optimum(inst) >= brute_force_optimum(inst, "sw", 400) - 1e-15

    def test_social_optimum_closed_forms(self):
        # densities 1 and (1 + x) / 1.5 cross at 1/2; 1 and 3x^2 cross at 1/sqrt(3)
        linear = Instance.from_densities([Uniform(), Linear(1.0, 1.0)])
        assert social_optimum(linear) == pytest.approx(0.5 + 0.875 / 1.5, abs=1e-15)
        quad = Instance.from_densities([Uniform(), QUAD])
        c = 1.0 / math.sqrt(3.0)
        assert social_optimum(quad) == pytest.approx(c + 1.0 - c ** 3, abs=1e-15)
        assert social_optimum(Instance.from_densities([Uniform()] * 3)) == 1.0

    def test_size_limits(self):
        inst5 = Instance.from_densities([Uniform()] * 5)
        assert brute_force_optimum(inst5, "ew", 100) == pytest.approx(0.2, abs=1.0 / 100)
        inst2 = Instance.from_densities([Uniform(), Uniform()])
        with pytest.raises(UnsupportedSizeError):
            brute_force_optimum(inst2, "sw", 5000)
        with pytest.raises(UnsupportedSizeError):
            brute_force_optimum(inst2, "banana", 100)


    def test_grid_dp_equals_enumeration(self):
        rng = np.random.default_rng(5)
        cases = 0
        for n in (1, 2, 3, 4):
            for m in ((60, 300) if n < 4 else (40,)):
                for inst in (mlrp_instance(n, rng), mlrp_instance(n, rng),
                             piecewise_linear_instance(n, 2 * n, rng)):
                    prefix = _prefix_table(inst, m)
                    for objective in ("sw", "ew", "nsw"):
                        expected = enumeration_optimum(prefix, objective)
                        assert brute_force_optimum(inst, objective, m) == expected, (n, m, objective)
                        cases += 1
        assert cases == 63

    def test_any_n(self):
        inst = Instance.from_densities([Uniform()] * 8)
        assert brute_force_optimum(inst, "sw", 80) == pytest.approx(1.0, abs=1e-12)
        assert brute_force_optimum(inst, "nsw", 80) == pytest.approx(0.125, abs=1.0 / 80)


class TestParetoFalsifier:
    def test_grid_dp_equals_enumeration(self):
        rng = np.random.default_rng(9)
        answers = []
        for n in (2, 3):
            for m in (50, 200):
                for _ in range(10):
                    inst = mlrp_instance(n, rng)
                    for division in (envy_free(inst, 1e-6, QueryLedger()), random_division(n, rng)):
                        own = np.diag(envy_matrix(inst, division).values)
                        expected = enumeration_dominated(_prefix_table(inst, m), own)
                        assert pareto_dominated_on_grid(inst, division, m) == expected
                        answers.append(expected)
        assert True in answers and False in answers


    def test_ef_output_not_dominated(self):
        rng = np.random.default_rng(71)
        inst = mlrp_instance(3, rng)
        alloc = envy_free(inst, 1e-6, QueryLedger())
        assert not pareto_dominated_on_grid(inst, alloc, 200)

    def test_order_violating_waste_is_dominated(self):
        # agents holding pieces against the MLRP order: the swap repair dominates
        inst = Instance.from_densities([Uniform(), QUAD])
        reversed_halves = [[(0.5, 1.0)], [(0.0, 0.5)]]
        assert pareto_dominated_on_grid(inst, reversed_halves, 200)

    def test_zero_piece_allocation_not_dominated(self):
        # giving everything to one agent is Pareto optimal under full support
        inst = Instance.from_densities([Uniform(), Uniform()])
        assert not pareto_dominated_on_grid(inst, Allocation((0.0, 0.0, 1.0)), 100)

    def test_single_agent(self):
        inst = Instance.from_densities([Uniform()])
        assert not pareto_dominated_on_grid(inst, Allocation((0.0, 1.0)), 100)
        # half the cake left unallocated: the whole cake dominates it
        assert pareto_dominated_on_grid(inst, [[(0.0, 0.5)]], 100)


class TestIsPerfect:
    def test_two_step_division_is_perfect(self):
        inst = two_step_instance(0.3)
        assert is_perfect(inst, two_step_perfect_division(0.3), 1e-9)

    def test_contiguous_never_perfect(self):
        inst = two_step_instance(0.4)
        for c in np.linspace(0.05, 0.95, 19):
            alloc = Allocation((0.0, float(c), 1.0))
            assert not is_perfect(inst, alloc, 1e-3)

    def test_identical_uniform_halves(self):
        inst = Instance.from_densities([Uniform(), Uniform()])
        assert is_perfect(inst, Allocation((0.0, 0.5, 1.0)), 1e-12)


def package_imports(module):
    """(module, name) for every name a fairslice module imports from inside the package."""
    pairs = []
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("fairslice")):
            source = (node.module or "").removeprefix("fairslice").lstrip(".")
            pairs += [(source, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            pairs += [(alias.name.removeprefix("fairslice").lstrip("."), "")
                      for alias in node.names if alias.name.startswith("fairslice")]
    return pairs


class TestIndependence:
    """The audit referees the algorithms, so neither side may lean on the other."""

    @pytest.mark.parametrize("module", [ripple, welfare, plef, mlrp, oracle, density],
                             ids=lambda module: module.__name__)
    def test_algorithms_do_not_import_audit(self, module):
        for source, name in package_imports(module):
            assert "audit" not in (source, name), module

    def test_audit_imports_only_data_types(self):
        pairs = package_imports(audit)
        assert ("oracle", "Instance") in pairs
        for source, name in pairs:
            assert source == "errors" or name in ("Instance", "Allocation", "Division"), name

    def test_audit_imports_from_oracle_and_errors_only(self):
        assert {source for source, _ in package_imports(audit)} == {"oracle", "errors"}
