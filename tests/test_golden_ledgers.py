"""Golden cuts and query counts of the chain searches on binomial instances.

Every cut of ``envy_free`` and ``max_egalitarian`` here goes through
``BinomialPoly`` cuts, and an ulp of difference in one cut can move a search
probe and the ledger, so a change to the binomial cut or to the searches must
reproduce these values exactly.  The searches interpolate their probes
(``ripple._probe``), and their chains stop querying once a point reaches 1.0.
Both start from bracket ends known without a query: the egalitarian search
brackets k over [0, kmax + 1) and spends no run up front on the top target
kmax, which fails on every instance here.

The egalitarian cuts and values equal those of a plain bisection over target
values, since feasibility is monotone; only their ledgers depend on the probe
rule.  Each envy-free golden is audited at eta.  ``BISECTION_LEDGERS`` holds
the (eval, cut) counts that plain bisection searches, with chains that always
query, take on the same instances; no ledger may exceed them.
"""

import numpy as np
import pytest

from fairslice import BinomialPoly, Instance, QueryLedger, envy_free, envy_matrix, max_egalitarian
from fairslice.mlrp import check_binomial_pair
from gen import binomial_instance

ETA = 1e-6

# (seed, n): envy-free cuts and (eval, cut) counts, egalitarian cuts, value and counts
GOLDEN = {
    (11, 2): ((0.0, 0.5763014182007138, 1.0), (4, 4),
              (0.0, 0.5951007187627113, 1.0), 0.5189079999999999, (1, 10)),
    (12, 2): ((0.0, 0.5867226288530001, 1.0), (4, 4),
              (0.0, 0.6723313071584126, 1.0), 0.585649, (1, 10)),
    (11, 5): ((0.0, 0.24750572616376698, 0.4854647767329611, 0.6937103340425566,
               0.8636291116159522, 1.0), (16, 16),
              (0.0, 0.2553139970513072, 0.5139526484631259, 0.7333015125228962,
               0.895651803055918, 1.0), 0.23098, (2, 33)),
    (12, 5): ((0.0, 0.2433400162775858, 0.48271050387156145, 0.7001666025634907,
               0.8789005499017856, 1.0), (26, 26),
              (0.0, 0.2652416230677436, 0.5373283614034603, 0.775045503387368,
               0.9125565202102272, 1.0), 0.245081, (2, 33)),
    (11, 9): ((0.0, 0.14684754616872217, 0.29159914592705594, 0.42839046674882114,
               0.5529446032131601, 0.664188219951376, 0.7635413704896886,
               0.8514834314149677, 0.9296288571435236, 1.0), (32, 32),
              (0.0, 0.13749437865906214, 0.2866497917524972, 0.43256423170195085,
               0.5657005408271609, 0.6833810414044121, 0.7844603431535687,
               0.8705318274177931, 0.9465951532488202, 1.0), 0.12374099999999999, (2, 62)),
    (12, 9): ((0.0, 0.14667047914827536, 0.2928015744437182, 0.4354156723658957,
               0.5688904321131362, 0.6891395362960795, 0.7923464180895171,
               0.874233156243559, 0.9421620529199732, 1.0), (46, 46),
              (0.0, 0.14422962336090384, 0.2976843602545997, 0.45322458039939134,
               0.5983059791071716, 0.7256694068949544, 0.8191053730848835,
               0.8945711835235871, 0.9552022048558, 1.0), 0.133092, (1, 53)),
}

#: a < 0 in the first agent: its cuts keep the plain bisection
MIXED_SIGN = ((-0.5, 1.0), (1.0, 1.0))
MIXED_GOLDEN = ((0.0, 0.429909382461094, 1.0), (15, 15),
                (0.0, 0.5094303305430893, 1.0), 0.5848749999999999, (1, 10))

# instance key: envy-free and egalitarian (eval, cut) counts of the bisection searches
BISECTION_LEDGERS = {
    (11, 2): ((17, 17), (13, 44)),
    (12, 2): ((22, 22), (11, 44)),
    (11, 5): ((84, 84), (17, 110)),
    (12, 5): ((84, 84), (13, 110)),
    (11, 9): ((192, 192), (26, 198)),
    (12, 9): ((184, 184), (35, 198)),
    MIXED_SIGN: ((23, 23), (12, 44)),
}


def _check(inst, golden, bisection):
    ef_ledger, ew_ledger = QueryLedger(), QueryLedger()
    ef = envy_free(inst, ETA, ef_ledger)
    ew, value = max_egalitarian(inst, ETA, ew_ledger)
    ledgers = ((ef_ledger.eval_count, ef_ledger.cut_count),
               (ew_ledger.eval_count, ew_ledger.cut_count))
    assert (ef.cuts, ledgers[0], ew.cuts, value, ledgers[1]) == golden
    assert envy_matrix(inst, ef).max_envy <= ETA
    for new, old in zip(ledgers, bisection):
        assert new[0] <= old[0] and new[1] <= old[1]


@pytest.mark.parametrize("seed, n", sorted(GOLDEN))
def test_binomial_instance_ledgers(seed, n):
    inst = binomial_instance(n, np.random.default_rng(seed))
    _check(inst, GOLDEN[seed, n], BISECTION_LEDGERS[seed, n])


def test_mixed_sign_pair_ledgers():
    (a_i, b_i), (a_j, b_j) = MIXED_SIGN
    assert check_binomial_pair(a_i, b_i, a_j, b_j, 2, 0)
    inst = Instance.from_densities([BinomialPoly(a, b, 2, 0) for a, b in MIXED_SIGN])
    _check(inst, MIXED_GOLDEN, BISECTION_LEDGERS[MIXED_SIGN])
