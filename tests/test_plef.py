import math

import numpy as np
import pytest

from fairslice import (
    GaussianRestricted,
    Instance,
    Linear,
    PiecewiseLinear,
    QueryLedger,
    Uniform,
    envy_matrix,
    pl_config,
    pl_ef,
    ripple_window,
)
from fairslice import plef
from fairslice.errors import ParameterRegimeError, SearchFailedError, UnsupportedFamilyError
from bisection import bisection_search
from gen import piecewise_linear_instance


class TestPlConfig:
    def test_derived_fields(self):
        cfg = pl_config(1e-3, 4, 2.0)
        assert cfg.eta_hat == pytest.approx((1e-3 / 4) ** 2 / 2.0)
        assert cfg.lambda_pl == pytest.approx(max(2.0, 2.0 / cfg.eta_hat, 1.0 / cfg.eta_hat))
        assert not hasattr(cfg, "delta")
        # every half's window is eta_hat / U of its local densities; lambda_pl sizes only cap
        assert ripple_window(cfg.eta_hat, cfg.upper) == cfg.eta_hat / cfg.upper
        assert cfg.b_levels == pytest.approx(2.0 * math.log2(4 * 2.0 / cfg.eta_hat))
        assert cfg.min_length == pytest.approx((1e-3) ** 2 / (16 * 4.0))
        assert cfg.cap >= 1

    def test_parameter_regime_gate(self):
        with pytest.raises(ParameterRegimeError):
            pl_config(0.9, 1, 1.0)  # kU/eta = 1.11 < 4


class TestPlEf:
    def test_all_linear_single_node(self):
        inst = Instance.from_densities([Linear(1.0, 0.5), Linear(-0.5, 1.25), Uniform()])
        led = QueryLedger()
        division, stats = pl_ef(inst, 1e-3, led)
        assert stats.node_count == 1
        assert stats.recursed_halves == 0
        assert envy_matrix(inst, division).max_envy <= 1e-3

    def test_shared_breakpoint_two_agents(self):
        tent = PiecewiseLinear((0.5,), (2.0, -2.0), (0.25, 2.25))
        vee = PiecewiseLinear((0.5,), (-2.0, 2.0), (1.75, -0.25))
        inst = Instance.from_densities([tent, vee])
        led = QueryLedger()
        division, stats = pl_ef(inst, 1e-3, led)
        cfg = pl_config(1e-3, 2, inst.bounds.upper)
        assert envy_matrix(inst, division).max_envy <= 1e-3
        assert stats.node_count <= cfg.k * (cfg.b_levels + 1)

    def test_random_instance_bounds(self):
        rng = np.random.default_rng(61)
        inst = piecewise_linear_instance(3, 4, rng)
        eta = 1e-3
        led = QueryLedger()
        division, stats = pl_ef(inst, eta, led)
        assert envy_matrix(inst, division).max_envy <= eta
        cfg = pl_config(eta, 4, inst.bounds.upper)
        assert stats.node_count <= cfg.k * (cfg.b_levels + 1)
        assert division.max_pieces() <= 2 * cfg.k * (cfg.b_levels + 1)

    @pytest.mark.parametrize("eta", [1e-2, 1e-3])
    def test_budgets_hold_with_either_search(self, monkeypatch, eta):
        # the same fixtures under the interpolating search and the plain bisection:
        # both take 43 recursion nodes at either eta, the former about half the queries
        real = plef.bin_search
        queries = {}
        for name, search in (("interpolating", real), ("bisection", bisection_search)):
            monkeypatch.setattr(plef, "bin_search", search)
            rng = np.random.default_rng(2024)
            queries[name] = 0
            for _ in range(20):
                n, k = int(rng.integers(2, 5)), int(rng.integers(1, 7))
                inst = piecewise_linear_instance(n, k, rng)
                led = QueryLedger()
                division, stats = pl_ef(inst, eta, led)
                cfg = pl_config(eta, k, inst.bounds.upper)
                assert envy_matrix(inst, division).max_envy <= eta
                assert stats.node_count <= k * (cfg.b_levels + 1)
                assert division.max_pieces() <= 2 * k * (cfg.b_levels + 1)
                queries[name] += led.total()
        assert queries["interpolating"] < queries["bisection"]

    def test_division_covers_cake(self):
        rng = np.random.default_rng(67)
        inst = piecewise_linear_instance(2, 3, rng)
        division, _ = pl_ef(inst, 1e-3, QueryLedger())
        pieces = sorted(iv for plist in division.pieces for iv in plist)
        assert pieces[0][0] == pytest.approx(0.0, abs=1e-12)
        assert pieces[-1][1] == pytest.approx(1.0, abs=1e-12)
        for (_, r1), (l2, _) in zip(pieces, pieces[1:]):
            assert l2 == pytest.approx(r1, abs=1e-9)

    def test_unsupported_family(self):
        inst = Instance.from_densities([GaussianRestricted(0.5, 0.2), Uniform()])
        with pytest.raises(UnsupportedFamilyError):
            pl_ef(inst, 1e-3, QueryLedger())

    def test_parameter_regime_error(self):
        inst = Instance.from_densities([Uniform(), Uniform()])
        with pytest.raises(ParameterRegimeError):
            pl_ef(inst, 0.5, QueryLedger())

    def test_floored_windows_keep_envy(self):
        # eta_hat < 1e-13 and local U >= 1, so ripple_window floors every half's
        # window; the per-half audit still holds each half to eta_hat
        inst = piecewise_linear_instance(3, 4, np.random.default_rng(61))
        eta = 1e-6
        division, stats = pl_ef(inst, eta, QueryLedger())
        cfg = pl_config(eta, 4, inst.bounds.upper)
        assert ripple_window(cfg.eta_hat, 1.0) == 1e-13
        assert envy_matrix(inst, division).max_envy <= eta
        assert stats.node_count <= cfg.k * (cfg.b_levels + 1)

    def test_identical_agents_with_jump(self):
        # discontinuous density with a steep right spike, shared by both agents
        lam = 10.0
        d = PiecewiseLinear(
            (1.0 - 1.0 / lam,),
            (0.0, 2.0 * lam * lam / 3.0),
            (lam / (3.0 * (lam - 1.0)), lam - 2.0 * lam * lam / 3.0),
        )
        inst = Instance.from_densities([d, d])
        division, stats = pl_ef(inst, 1e-2, QueryLedger())
        assert envy_matrix(inst, division).max_envy <= 1e-2


class TestZeroTouchingFallback:
    """Halves where a density touches 0 (infinite local lambda) search under the global cap."""

    @staticmethod
    def fallback_outcomes(monkeypatch):
        """Record True/False per infinite-lambda bin_search call: settled or failed."""
        real, outcomes = plef.bin_search, []

        def spy(instance, *args, **kwargs):
            fallback = math.isinf(instance.bounds.lipschitz)
            try:
                rd = real(instance, *args, **kwargs)
            except SearchFailedError:
                if fallback:
                    outcomes.append(False)
                raise
            if fallback:
                outcomes.append(True)
            return rd

        monkeypatch.setattr(plef, "bin_search", spy)
        return outcomes

    @pytest.mark.parametrize("densities, eta, settled", [
        ((Linear(2.0, 0.0), Uniform()), 1e-2, 1),  # the left half falls back
        ((Linear(2.0, 0.0), Uniform()), 1e-3, 1),
        ((Linear(2.0, 0.0), Linear(-2.0, 2.0)), 1e-2, 2),  # both halves fall back
        ((Linear(2.0, 0.0), Linear(-2.0, 2.0)), 1e-3, 2),
        ], ids=["up-flat-1e-2", "up-flat-1e-3", "up-down-1e-2", "up-down-1e-3"])
    def test_bounds_hold(self, monkeypatch, densities, eta, settled):
        outcomes = self.fallback_outcomes(monkeypatch)
        inst = Instance.from_densities(densities)
        division, stats = pl_ef(inst, eta, QueryLedger())
        cfg = pl_config(eta, 1, inst.bounds.upper)
        assert outcomes == [True] * settled  # every fallback settles at the root
        assert stats.node_count == 1
        assert envy_matrix(inst, division).max_envy <= eta
        assert stats.node_count <= cfg.k * (cfg.b_levels + 1)
        assert division.max_pieces() <= 2 * cfg.k * (cfg.b_levels + 1)

    def test_steep_segment_to_zero_at_a_breakpoint(self, monkeypatch):
        # the first segment falls to exactly 0 at 0.53; restricted to the right half
        # it ends at -1.4e-15 after rounding, so that half searches under the global cap
        outcomes = self.fallback_outcomes(monkeypatch)
        inst = Instance.from_densities([PiecewiseLinear((0.53,), (-1000.0, 0.0), (530.0, 1.0)),
                                        Linear(1.0, 1.0)])
        division, stats = pl_ef(inst, 1e-2, QueryLedger())
        assert outcomes == [True]
        assert stats.node_count == 1
        assert envy_matrix(inst, division).max_envy <= 1e-2

    def test_steep_segments_to_zero_sweep(self):
        # a first segment s*x - s*p, s from -3 to -1000, falls to exactly 0 at a uniform
        # breakpoint p, where the restrictions of a half may round its end below 0
        rng = np.random.default_rng(38)
        for t in range(200):
            p = float(rng.uniform(0.05, 0.95))
            s = -float(np.exp(rng.uniform(np.log(3.0), np.log(1000.0))))
            eta = (1e-2, 1e-3)[t % 2]
            inst = Instance.from_densities([PiecewiseLinear((p,), (s, 0.0), (-(s * p), 1.0)),
                                            Linear(1.0, 1.0)])
            division, _ = pl_ef(inst, eta, QueryLedger())
            assert envy_matrix(inst, division).max_envy <= eta, (p, s, eta)
