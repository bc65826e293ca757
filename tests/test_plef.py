import itertools
import json
import math
import sys

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
from fairslice import cli, mlrp, plef, ripple
from fairslice.density import as_piecewise_linear, restrict_unit
from fairslice.errors import ParameterRegimeError, SearchFailedError, UnsupportedFamilyError
from fairslice.mlrp import detect_order
from fairslice.ripple import bin_search, iteration_cap, ripple_to_allocation
from bisection import bisection_search
from gen import piecewise_linear_instance
from test_golden_plef import GOLDEN as GOLDEN_PLEF


class TestPlConfig:
    def test_derived_fields(self):
        cfg = pl_config(1e-3, 4, 2.0)
        assert cfg.audit_envy == 1e-3 / 3.0
        # B = 22 is the first depth whose nodes, 2^(1-B) long, are worth less than
        # e_d = eta / (6k(B+1)); at B = 21 they are not
        assert cfg.b_levels == 22
        assert cfg.node_budget == 4 * 23
        assert cfg.drop_value == 1e-3 / (6.0 * 92)
        assert cfg.min_length == 2.0 ** -21
        assert 2.0 * cfg.min_length < cfg.drop_value
        assert 2.0 * 2.0 ** -20 >= 1e-3 / (6.0 * 4 * 22)
        # the shares: audited halves, the leaves' drop values and the audit slack
        assert 2 * cfg.node_budget * cfg.drop_value == pytest.approx(1e-3 / 3.0, rel=1e-15)
        assert 3.0 * plef.AUDIT_SLACK <= 1e-3
        assert cfg.lambda_pl == max(2.0, 2.0 / cfg.drop_value, 1.0 / cfg.drop_value)
        # the iterations two agents need on the narrowest window a kept agent can search
        assert cfg.cap == iteration_cap(2, cfg.lambda_pl, ripple_window(cfg.audit_envy, cfg.lambda_pl))
        assert not hasattr(cfg, "delta")

    def test_parameter_regime_gate(self):
        with pytest.raises(ParameterRegimeError):
            pl_config(0.9, 1, 1.0)  # kU/eta = 1.11 < 4

    def test_at_the_ku_over_eta_gate(self):
        # kU/eta = 4 exactly is accepted, and the envy bound holds there
        assert pl_config(0.25, 1, 1.0).node_budget == 10
        with pytest.raises(ParameterRegimeError):
            pl_config(0.2500001, 1, 1.0)
        flat = PiecewiseLinear((0.5,), (0.0, 0.0), (1.0, 1.0))  # U = 1, one breakpoint
        inst = Instance.from_densities([flat, Linear(0.5, 0.75)])
        division, stats = pl_ef(inst, 0.25, QueryLedger())
        assert envy_matrix(inst, division).max_envy <= 0.25
        assert stats.node_count <= pl_config(0.25, 1, inst.bounds.upper).node_budget

    @pytest.mark.parametrize("rejected, accepted, b_levels", [
        ((2.9e-12, 1, 1.0), (3e-12, 1, 1.0), 48),  # the 1e-12 audit slack would pass eta/3
        ((1e-11, 100, 4.0), (1e-11, 50, 4.0), plef.MAX_DEPTH),  # halves shorter than 2^-53
    ], ids=["audit-slack", "float-depth"])
    def test_fine_eta_gates(self, rejected, accepted, b_levels):
        with pytest.raises(ParameterRegimeError):
            pl_config(*rejected)
        assert pl_config(*accepted).b_levels == b_levels

    def test_gate_precedes_any_query(self):
        inst = Instance.from_densities([PiecewiseLinear((0.5,), (0.0, 0.0), (1.0, 1.0)), Uniform()])
        ledger = QueryLedger()
        with pytest.raises(ParameterRegimeError):
            pl_ef(inst, 1e-12, ledger)
        assert ledger.total() == 0


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
        assert stats.node_count <= cfg.node_budget

    def test_random_instance_bounds(self):
        rng = np.random.default_rng(61)
        inst = piecewise_linear_instance(3, 4, rng)
        eta = 1e-3
        led = QueryLedger()
        division, stats = pl_ef(inst, eta, led)
        assert envy_matrix(inst, division).max_envy <= eta
        cfg = pl_config(eta, 4, inst.bounds.upper)
        assert stats.node_count <= cfg.node_budget
        assert division.max_pieces() <= 2 * cfg.node_budget

    @pytest.mark.parametrize("eta", [1e-2, 1e-3])
    def test_budgets_hold_with_either_search(self, monkeypatch, eta):
        # the same fixtures under the interpolating search and the plain bisection:
        # both take 36 recursion nodes at eta 1e-2 and 42 at 1e-3, the former 43% and
        # 35% of the queries
        real = plef._search
        queries = {}

        def bisection(instance, delta, ledger, first, max_iterations=None):
            return bisection_search(instance, delta, ledger, max_iterations)

        for name, search in (("interpolating", real), ("bisection", bisection)):
            monkeypatch.setattr(plef, "_search", search)
            rng = np.random.default_rng(2024)
            queries[name] = 0
            for _ in range(20):
                n, k = int(rng.integers(2, 5)), int(rng.integers(1, 7))
                inst = piecewise_linear_instance(n, k, rng)
                led = QueryLedger()
                division, stats = pl_ef(inst, eta, led)
                cfg = pl_config(eta, k, inst.bounds.upper)
                assert envy_matrix(inst, division).max_envy <= eta
                assert stats.node_count <= cfg.node_budget
                assert division.max_pieces() <= 2 * cfg.node_budget
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

    def test_node_budget_stops_a_search_that_never_settles(self, tmp_path, monkeypatch, capsys):
        # every half with two kept agents fails, so the tree would grow to 2^B nodes;
        # pl_ef stops one node past k(B+1) and the CLI exits 2
        def fail(*args, **kwargs):
            raise SearchFailedError("no ripple division")

        monkeypatch.setattr(plef, "_search", fail)
        inst = piecewise_linear_instance(3, 4, np.random.default_rng(61))
        budget = pl_config(1e-3, 4, inst.bounds.upper).node_budget
        with pytest.raises(SearchFailedError, match=f"node budget k\\(B\\+1\\) = {budget} "):
            pl_ef(inst, 1e-3, QueryLedger())
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"agents": [a.to_dict() for a in inst.agents]}), encoding="utf-8")
        monkeypatch.setattr(sys, "argv", ["fairslice", "plef", "--eta", "1e-3", str(path)])
        with pytest.raises(SystemExit) as exit_info:
            cli.main()
        assert exit_info.value.code == 2
        assert "node budget" in capsys.readouterr().err

    @pytest.mark.parametrize("eta", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_sweep_within_eta_and_node_budget(self, eta):
        # 60 draws of 2-5 agents with 1-8 breakpoints; at fine eta the deep halves
        # restrict segments to near-flat ones, whose cuts must stay exact to settle
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(60):
            n, k = int(rng.integers(2, 6)), int(rng.integers(1, 9))
            inst = piecewise_linear_instance(n, k, rng)
            division, stats = pl_ef(inst, eta, QueryLedger())
            cfg = pl_config(eta, k, inst.bounds.upper)
            assert stats.node_count <= cfg.node_budget
            assert division.max_pieces() <= 2 * cfg.node_budget
            worst = max(worst, envy_matrix(inst, division).max_envy)
        assert worst <= eta

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


#: (densities, eta, halves whose local lambda is infinite), each settled at the root
ZERO_TOUCHING = [
    ((Linear(2.0, 0.0), Uniform()), 1e-2, 1),  # the left half touches 0
    ((Linear(2.0, 0.0), Uniform()), 1e-3, 1),
    ((Linear(2.0, 0.0), Linear(-2.0, 2.0)), 1e-2, 2),  # both halves touch 0
    ((Linear(2.0, 0.0), Linear(-2.0, 2.0)), 1e-3, 2),
]
ZERO_TOUCHING_IDS = ["up-flat-1e-2", "up-flat-1e-3", "up-down-1e-2", "up-down-1e-3"]

#: a first segment that falls to exactly 0 at its breakpoint
STEEP_TO_ZERO = (PiecewiseLinear((0.53,), (-1000.0, 0.0), (530.0, 1.0)), Linear(1.0, 1.0))


class TestZeroTouchingFallback:
    """Halves where a density touches 0 (infinite local lambda) search under the same
    iteration cap as every other half, n * ``PlConfig.cap``, and settle."""

    @staticmethod
    def fallback_outcomes(monkeypatch):
        """Record True/False per infinite-lambda search of a half: settled or failed."""
        real, outcomes = plef._search, []

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

        monkeypatch.setattr(plef, "_search", spy)
        return outcomes

    @pytest.mark.parametrize("densities, eta, settled", ZERO_TOUCHING, ids=ZERO_TOUCHING_IDS)
    def test_bounds_hold(self, monkeypatch, densities, eta, settled):
        outcomes = self.fallback_outcomes(monkeypatch)
        inst = Instance.from_densities(densities)
        division, stats = pl_ef(inst, eta, QueryLedger())
        cfg = pl_config(eta, 1, inst.bounds.upper)
        assert outcomes == [True] * settled  # every fallback settles at the root
        assert stats.node_count == 1
        assert envy_matrix(inst, division).max_envy <= eta
        assert stats.node_count <= cfg.node_budget
        assert division.max_pieces() <= 2 * cfg.node_budget

    def test_steep_segment_to_zero_at_a_breakpoint(self, monkeypatch):
        # the first segment falls to exactly 0 at 0.53; restricted to the right half
        # it ends at -1.4e-15 after rounding, so that half's local lambda is infinite
        outcomes = self.fallback_outcomes(monkeypatch)
        inst = Instance.from_densities(STEEP_TO_ZERO)
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


def test_every_half_searches_under_one_cap(monkeypatch):
    # the paper's one "specified number of iterations": n * cfg.cap on every half,
    # whether the half's local lambda is finite or not; on the golden PL-EF fixtures
    # and the zero-touching ones
    real, caps = plef._search, []

    def spy(instance, delta, ledger, first, max_iterations=None):
        caps.append(max_iterations)
        return real(instance, delta, ledger, first, max_iterations=max_iterations)

    monkeypatch.setattr(plef, "_search", spy)
    cases = [(piecewise_linear_instance(n, k, np.random.default_rng(seed)), eta)
             for n, k, seed, eta in sorted(GOLDEN_PLEF)]
    cases += [(Instance.from_densities(densities), eta) for densities, eta, _ in ZERO_TOUCHING]
    cases.append((Instance.from_densities(STEEP_TO_ZERO), 1e-2))
    for inst, eta in cases:
        caps.clear()
        k = max(sum(len(as_piecewise_linear(d).breakpoints) for d in inst.agents), 1)
        pl_ef(inst, eta, QueryLedger())
        assert caps and set(caps) == {inst.n * pl_config(eta, k, inst.bounds.upper).cap}


def test_only_halves_with_a_breakpoint_recurse():
    # the paper's lemma: a half with no breakpoint inside has linear, hence MLRP,
    # local densities and settles; RecursionStats counts the halves that break it
    recursed = 0
    for n in (2, 4, 8):
        for k in (2, 8, 32):
            rng = np.random.default_rng(1000 * n + k)
            for _ in range(3):
                inst = piecewise_linear_instance(n, k, rng)
                for eta in (1e-3, 1e-6):
                    stats = pl_ef(inst, eta, QueryLedger())[1]
                    assert stats.breakpoint_free_recursions == 0, (n, k, eta)
                    recursed += stats.recursed_halves
    assert recursed > 0
    # in floats the zero-touching pair recurses at eta 1e-8, on halves without breakpoints
    stats = pl_ef(Instance.from_densities([Linear(2.0, 0.0), Linear(-2.0, 2.0)]), 1e-8, QueryLedger())[1]
    assert stats.breakpoint_free_recursions == stats.recursed_halves > 0


#: The paper's bound q <= C n^2 k log2^2(kU/eta) on the grid of the theorem sweep: its
#: worst draw reads C = 0.053 (n = 8, k = 2, eta 1e-3), pinned with some margin.
THEOREM_C = 0.06


def test_theorem_query_bound_on_the_grid():
    # Theorem PL-EF, measured: two seeded draws per (n, k) cell, at n up to 16 and k up
    # to 64; every run stays within THEOREM_C, recurses only on halves with a breakpoint,
    # and stays above depth B: a half that deep is worth less than e_d to every agent, so
    # the drop rule leaves it no two agents to split it
    for n in (2, 4, 8, 16):
        for k in (2, 8, 32, 64):
            rng = np.random.default_rng(1000 * n + k)
            for _ in range(2):
                inst = piecewise_linear_instance(n, k, rng)
                own_k = sum(len(as_piecewise_linear(d).breakpoints) for d in inst.agents)
                for eta in (1e-3, 1e-6):
                    ledger = QueryLedger()
                    stats = pl_ef(inst, eta, ledger)[1]
                    assert stats.breakpoint_free_recursions == 0, (n, k, eta)
                    cfg = pl_config(eta, own_k, inst.bounds.upper)
                    assert stats.max_depth <= cfg.b_levels - 1, (n, k, eta)
                    assert ledger.total() <= THEOREM_C * n * n * k * math.log2(k * cfg.upper / eta) ** 2, (n, k, eta)


def test_prefix_audit_matches_the_envy_matrix():
    # plef._envious, the in-half audit, on seeded restrictions of PL halves searched as
    # a pl_ef half does: its verdict is the envy matrix's on the same local cuts (but within
    # 1e-12 of the bound), and a passing half of m agents asks m^2 - 3m + 3 evals, no cut
    rng = np.random.default_rng(29)
    verdicts = []
    for m in range(2, 7):
        for _ in range(20):
            inst = piecewise_linear_instance(m, int(rng.integers(1, 13)), rng)
            depth = int(rng.integers(1, 4))
            lo = int(rng.integers(0, 2 ** depth)) / 2 ** depth
            local = Instance.from_densities(
                [restrict_unit(as_piecewise_linear(d), lo, lo + 0.5 ** depth) for d in inst.agents],
                normalize=False)
            local = local.reordered(detect_order(local, QueryLedger()))
            envy = float(rng.choice([1e-2, 1e-3, 1e-4])) / 3.0
            rd = bin_search(local, ripple_window(envy, local.bounds.upper), QueryLedger())
            ledger = QueryLedger()
            verdict = plef._envious(local, rd, envy, ledger)
            excess = envy_matrix(local, ripple_to_allocation(rd)).max_envy - envy - plef.AUDIT_SLACK
            if abs(excess) > 1e-12:
                assert verdict == (excess > 0), (m, excess)
            if not verdict:
                assert (ledger.eval_count, ledger.cut_count) == (m * m - 3 * m + 3, 0)
            verdicts.append(verdict)
    assert 0 < sum(verdicts) < len(verdicts)  # halves that fail the audit, and halves that pass


#: linear densities, zero-touching ones among them; every half of a set of them is linear
LINEAR = (Linear(2.0, 0.0), Linear(1.0, 0.5), Uniform(), Linear(-1.0, 1.5), Linear(-2.0, 2.0))
#: their pairs and triples, (Linear(2, 0), Linear(-2, 2)) among them
LINEAR_CASES = [combo for m in (2, 3) for combo in itertools.combinations(LINEAR, m)]


@pytest.mark.parametrize("eta", [1e-2, 1e-4, 1e-6])
def test_model_probe_hits_on_linear_halves(monkeypatch, eta):
    # a half with linear local densities is its own model, so the first probe hits:
    # every half settles on its first chain and the root settles in one node
    real, iterations = plef._search, []

    def spy(*args, **kwargs):
        rd = real(*args, **kwargs)
        iterations.append(rd.iterations_used)
        return rd

    monkeypatch.setattr(plef, "_search", spy)
    for densities in LINEAR_CASES:
        iterations.clear()
        inst = Instance.from_densities(densities)
        division, stats = pl_ef(inst, eta, QueryLedger())
        assert iterations == [1, 1], densities
        assert stats.node_count == 1
        assert envy_matrix(inst, division).max_envy <= eta


def test_model_probe_asks_no_query_and_stays_inside(monkeypatch):
    # tails at the clamp edges 1/4 and 3/4, beyond them, and in between, for m = 2..8
    def no_query(*args):
        raise AssertionError("the model solve asked a query")

    for module in (plef, ripple, mlrp):
        monkeypatch.setattr(module, "eval_query", no_query)
    monkeypatch.setattr(ripple, "cut_query", no_query)
    rng = np.random.default_rng(30)
    for m in range(2, 9):
        for tails in ([0.25] * m, [0.75] * m, [0.25, 0.75] * (m // 2) + [0.5] * (m % 2),
                      [0.0] * m, [1.0] * m, [-0.5, 1.5] * (m // 2) + [0.5] * (m % 2),
                      sorted(rng.uniform(0.0, 1.0, m)), sorted(rng.uniform(0.2, 0.8, m))):
            slopes = [8.0 * (min(max(t, 0.25), 0.75) - 0.5) for t in tails[:-1]]  # as pl_ef's
            for delta in (0.5, 1e-3, 1e-7, 1e-13):
                assert 0.0 < ripple._model_probe(slopes, delta) < 1.0, (m, tails, delta)
    # every tail 1/2 is the uniform model, whose chain is x_i = i x_1
    assert ripple._model_probe([0.0] * 3, 1e-3) == (1.0 - 0.5e-3) / 4

