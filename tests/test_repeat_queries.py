"""No driver asks the same eval twice in one call.

A spy stands in for ``eval_query`` in every module that issues evals and
records each (density, l, r) it is asked within one ``max_social_welfare``,
``max_nash`` or ``pl_ef`` call, or one ``fairslice plef`` run.  Densities are
keyed by identity, and the spy holds on to each one: PL-EF builds a fresh
restriction per half, and the id of a freed one may be reused by the next.
"""

import json

import numpy as np
import pytest

import gen
from fairslice import (Instance, QueryLedger, cli, max_nash, max_social_welfare, mlrp, oracle, pl_ef, plef,
                       ripple, welfare)
from test_welfare import NASH_NON_MLRP_CASES

MAKERS = (gen.gaussian_instance, gen.linear_instance, gen.binomial_instance)


@pytest.fixture
def repeats_of(monkeypatch):
    """``repeats_of(call)`` runs ``call()`` and returns the evals it asked again, as (id, l, r)."""
    alive = []  # every density the spy has seen, so that no id is reused

    def repeats_of(call):
        seen, repeats = set(), []

        def spy(instance, i, l, r, ledger):
            density = instance.agents[i]
            alive.append(density)
            key = (id(density), l, r)
            if key in seen:
                repeats.append(key)
            seen.add(key)
            return oracle.eval_query(instance, i, l, r, ledger)

        for module in (welfare, ripple, plef, mlrp):
            monkeypatch.setattr(module, "eval_query", spy)
        call()
        return repeats

    return repeats_of


@pytest.mark.parametrize("eta", [1e-8, 1e-12])
def test_social_welfare_asks_no_eval_twice(repeats_of, eta):
    rng = np.random.default_rng(27)
    for maker in MAKERS:
        for n in (2, 3, 5, 8):
            inst = maker(n, rng)
            assert repeats_of(lambda: max_social_welfare(inst, eta, QueryLedger())) == []


def test_nash_asks_no_eval_twice(repeats_of):
    # the generated instances are in MLRP order, so max_nash certifies without the grid
    rng = np.random.default_rng(27)
    for maker in MAKERS:
        for n in (2, 3, 5):
            inst = maker(n, rng)
            assert repeats_of(lambda: max_nash(inst, 0.05, QueryLedger())) == []
    # off MLRP order it falls back to the grid, whose table reads the certified route's evals
    for densities in NASH_NON_MLRP_CASES.values():
        inst = Instance.from_densities(densities)
        assert repeats_of(lambda: max_nash(inst, 0.03, QueryLedger())) == []


@pytest.mark.parametrize("eta", [1e-2, 1e-4])
def test_plef_asks_no_eval_twice(repeats_of, eta):
    rng = np.random.default_rng(27)
    for n in (2, 3, 5):
        for k in (2, 6, 12):
            inst = gen.piecewise_linear_instance(n, k, rng)
            assert repeats_of(lambda: pl_ef(inst, eta, QueryLedger())) == []


def test_plef_cli_asks_no_eval_twice(repeats_of, tmp_path):
    # the CLI hands detect_order's v_i(0.5, 1) to pl_ef, whose root then asks none
    inst = gen.piecewise_linear_instance(3, 6, np.random.default_rng(27))
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"agents": [d.to_dict() for d in inst.agents]}), encoding="utf-8")
    exits = []
    repeats = repeats_of(lambda: exits.append(cli.run(["plef", "--eta", "1e-2", str(path)])))
    if exits != [0]:
        pytest.fail(f"fairslice plef exited {exits}")
    assert repeats == []
