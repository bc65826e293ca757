import math
import re

import numpy as np
import pytest

from fairslice import (
    BinomialPoly,
    Instance,
    Linear,
    QueryLedger,
    Uniform,
    cut_query,
    eval_query,
)
from fairslice.density import (
    DensityBounds,
    ExponentialRestricted,
    GaussianRestricted,
    PiecewiseConstant,
    PiecewiseLinear,
)
from fairslice.errors import DomainError, NotFullSupportError

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@pytest.fixture
def mixed():
    return Instance.from_densities([Uniform(), BinomialPoly(3.0, 0.0, 2, 0), Linear(1.0, 0.5)])


def test_eval_examples(mixed):
    led = QueryLedger()
    assert eval_query(mixed, 0, 0.0, 1.0, led) == pytest.approx(1.0, abs=1e-15)
    assert eval_query(mixed, 1, 0.5, 1.0, led) == pytest.approx(7.0 / 8.0, abs=1e-14)
    assert eval_query(mixed, 2, 0.0, 0.618034, led) == pytest.approx(0.5, abs=1e-6)
    assert led.eval_count == 3 and led.cut_count == 0


def test_cut_examples(mixed):
    led = QueryLedger()
    assert cut_query(mixed, 0, 0.0, 1.0 / 3.0, led) == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert cut_query(mixed, 2, 0.0, 0.5, led) == pytest.approx(GOLDEN, abs=1e-12)
    assert cut_query(mixed, 0, 0.99, 0.9, led) == 1.0
    assert led.cut_count == 3 and led.eval_count == 0


def test_errors(mixed):
    led = QueryLedger()
    with pytest.raises(DomainError):
        eval_query(mixed, 5, 0.0, 1.0, led)
    with pytest.raises(DomainError):
        eval_query(mixed, 0, 0.7, 0.3, led)
    with pytest.raises(DomainError):
        cut_query(mixed, 0, 0.0, -0.1, led)


@pytest.mark.parametrize("query, args, message", [
    (eval_query, (5, 0.0, 1.0), "agent index 5 out of range for n=3"),
    (eval_query, (-1, 0.0, 1.0), "agent index -1 out of range for n=3"),
    (cut_query, (3, 0.0, 0.1), "agent index 3 out of range for n=3"),
    (eval_query, (0, -0.1, 0.5), "a=-0.1 outside [0, 1]"),
    (eval_query, (0, math.nan, 0.5), "a=nan outside [0, 1]"),
    (eval_query, (0, 0.2, 1.5), "b=1.5 outside [0, 1]"),
    (eval_query, (0, 0.7, 0.3), "reversed interval [0.7, 0.3]"),
    (cut_query, (0, 1.5, 0.1), "l=1.5 outside [0, 1]"),
    (cut_query, (0, -0.5, 0.0), "l=-0.5 outside [0, 1]"),
    (cut_query, (0, 0.2, -0.1), "negative target value tau=-0.1"),
    (cut_query, (0, 0.2, math.nan), "target value tau=nan is not a number"),
])
def test_error_messages(mixed, query, args, message):
    # the in-range fast path falls back to the full checks, one message per fault
    with pytest.raises(DomainError, match=re.escape(message)):
        query(mixed, *args, QueryLedger())


def test_zero_target_cuts_at_l(mixed):
    led = QueryLedger()
    assert cut_query(mixed, 1, 0.3, 0.0, led) == 0.3
    assert cut_query(mixed, 2, 1.0, 0.0, led) == 1.0
    assert led.cut_count == 2


def test_cut_eval_roundtrip(mixed):
    led = QueryLedger()
    rng = np.random.default_rng(3)
    for _ in range(200):
        i = int(rng.integers(mixed.n))
        l = float(rng.uniform(0.0, 1.0))
        tau = float(rng.uniform(0.0, 1.0)) * eval_query(mixed, i, l, 1.0, led)
        y = cut_query(mixed, i, l, tau, led)
        assert eval_query(mixed, i, l, y, led) == pytest.approx(tau, abs=1e-9)


def test_cut_lipschitz_in_tau():
    inst = Instance.from_densities([Linear(1.0, 0.5), Linear(-1.0, 1.4)])
    lam = inst.bounds.lipschitz
    led = QueryLedger()
    rng = np.random.default_rng(11)
    for _ in range(500):
        i = int(rng.integers(inst.n))
        l = float(rng.uniform(0.0, 0.9))
        t1, t2 = rng.uniform(0.0, 0.6, 2)
        y1 = cut_query(inst, i, l, float(t1), led)
        y2 = cut_query(inst, i, l, float(t2), led)
        assert abs(y2 - y1) <= lam * abs(t2 - t1) + 1e-9


def test_ledger_matches_instrumented_counts(monkeypatch):
    # instrumented stubs around the oracle entry points the algorithms import
    import fairslice.ripple as ripple_mod
    import fairslice.welfare as welfare_mod
    from fairslice import envy_free, max_egalitarian

    calls = {"eval": 0, "cut": 0}

    def counting_eval(instance, i, l, r, ledger):
        calls["eval"] += 1
        return eval_query(instance, i, l, r, ledger)

    def counting_cut(instance, i, l, tau, ledger):
        calls["cut"] += 1
        return cut_query(instance, i, l, tau, ledger)

    for mod in (ripple_mod, welfare_mod):
        monkeypatch.setattr(mod, "eval_query", counting_eval, raising=True)
        monkeypatch.setattr(mod, "cut_query", counting_cut, raising=True)

    inst = Instance.from_densities([Uniform(), Linear(1.0, 0.5)])
    led = QueryLedger()
    envy_free(inst, 1e-5, led)
    max_egalitarian(inst, 1e-3, led)
    assert led.eval_count == calls["eval"] > 0
    assert led.cut_count == calls["cut"] > 0


def test_instance_validation():
    with pytest.raises(DomainError):
        Instance.from_densities([])
    inst = Instance.from_densities([Uniform(), Linear(1.0, 0.5)])
    re = inst.reordered([1, 0])
    assert re.agents[0] is inst.agents[1]
    with pytest.raises(DomainError):
        inst.reordered([0, 0])


def test_instance_bounds_aggregate():
    inst = Instance.from_densities([Uniform(), Linear(1.0, 0.5)])
    assert inst.bounds.lower == 0.5
    assert inst.bounds.upper == 1.5
    assert inst.bounds.lipschitz == 3.0


EVERY_FAMILY = (
    Uniform(scale=2.0),
    Linear(2.0, 0.0),  # touches 0
    BinomialPoly(3.0, 0.4, 2, 0),
    PiecewiseLinear((0.3, 0.8), (2.0, 0.0, -1.5), (0.5, 1.1, 2.3)),
    PiecewiseConstant((0.3, 0.6), (2.0, 0.5, 1.0)),
    GaussianRestricted(0.3, 0.25),
    ExponentialRestricted(1.7),
)


@pytest.mark.parametrize("normalize", [True, False])
def test_instance_bounds_are_the_agents_bounds_on_every_family(normalize):
    # the min of the lower and the max of the upper bounds, as bounds() gives them, in order
    for k in range(len(EVERY_FAMILY)):
        specs = EVERY_FAMILY[k:] + EVERY_FAMILY[:k]
        inst = Instance.from_densities(specs, normalize=normalize)
        per_agent = [d.bounds() for d in inst.agents]
        assert inst.bounds == DensityBounds(min(b.lower for b in per_agent), max(b.upper for b in per_agent))
        alone = Instance.from_densities(specs[:1], normalize=normalize)
        assert alone.bounds == alone.agents[0].bounds()


def test_instance_rejects_an_inadmissible_density_with_the_bounds_error():
    zero = PiecewiseConstant((0.5,), (0.0, 0.0))  # no mass: its upper bound is 0
    with pytest.raises(NotFullSupportError) as want:
        zero.bounds()
    with pytest.raises(NotFullSupportError) as got:
        Instance.from_densities([Uniform(), zero], normalize=False)
    assert str(got.value) == str(want.value)
