"""Golden cuts and query counts of the chain searches on binomial instances.

Every cut of ``envy_free`` and ``max_egalitarian`` here goes through
``BinomialPoly`` cuts, and an ulp of difference in one cut can move a search
step and the ledger.  The values were recorded with the plain bisection cut,
so a change to the binomial cut must reproduce them exactly.
"""

import numpy as np
import pytest

from fairslice import BinomialPoly, Instance, QueryLedger, envy_free, max_egalitarian
from fairslice.mlrp import check_binomial_pair
from gen import binomial_instance

ETA = 1e-6

# (seed, n): envy-free cuts and (eval, cut) counts, egalitarian cuts, value and counts
GOLDEN = {
    (11, 2): ((0.0, 0.5763015747070312, 1.0), (17, 17),
              (0.0, 0.5951007187627113, 1.0), 0.5189079999999999, (13, 44)),
    (12, 2): ((0.0, 0.5867226123809814, 1.0), (22, 22),
              (0.0, 0.6723313071584126, 1.0), 0.585649, (11, 44)),
    (11, 5): ((0.0, 0.24750566482543945, 0.4854646608024446, 0.6937101805610374,
               0.8636289349583632, 1.0), (84, 84),
              (0.0, 0.2553139970513072, 0.5139526484631259, 0.7333015125228962,
               0.895651803055918, 1.0), 0.23098, (17, 110)),
    (12, 5): ((0.0, 0.24334001541137695, 0.4827105021941216, 0.7001666003342683,
               0.8789005474279836, 1.0), (84, 84),
              (0.0, 0.2652416230677436, 0.5373283614034603, 0.775045503387368,
               0.9125565202102272, 1.0), 0.245081, (13, 110)),
    (11, 9): ((0.0, 0.14684754610061646, 0.29159914579370605, 0.42839046656017504,
               0.5529446029820189, 0.6641882196886705, 0.7635413702030246,
               0.8514834311095713, 0.9296288568226896, 1.0), (192, 192),
              (0.0, 0.13749437865906214, 0.2866497917524972, 0.43256423170195085,
               0.5657005408271609, 0.6833810414044121, 0.7844603431535687,
               0.8705318274177931, 0.9465951532488202, 1.0), 0.12374099999999999, (26, 198)),
    (12, 9): ((0.0, 0.14667046070098877, 0.2928015378188047, 0.4354156192510792,
               0.5688903663759374, 0.6891394623812402, 0.7923463397992248,
               0.8742330752482708, 0.9421619698745536, 1.0), (184, 184),
              (0.0, 0.14422962336090384, 0.2976843602545997, 0.45322458039939134,
               0.5983059791071716, 0.7256694068949544, 0.8191053730848835,
               0.8945711835235871, 0.9552022048558, 1.0), 0.133092, (35, 198)),
}

#: a < 0 in the first agent: its cuts keep the plain bisection
MIXED_SIGN = ((-0.5, 1.0), (1.0, 1.0))
MIXED_GOLDEN = ((0.0, 0.429909348487854, 1.0), (23, 23),
                (0.0, 0.5094303305430893, 1.0), 0.5848749999999999, (12, 44))


def _runs(inst):
    ef_ledger, ew_ledger = QueryLedger(), QueryLedger()
    ef = envy_free(inst, ETA, ef_ledger)
    ew, value = max_egalitarian(inst, ETA, ew_ledger)
    return (ef.cuts, (ef_ledger.eval_count, ef_ledger.cut_count),
            ew.cuts, value, (ew_ledger.eval_count, ew_ledger.cut_count))


@pytest.mark.parametrize("seed, n", sorted(GOLDEN))
def test_binomial_instance_ledgers(seed, n):
    inst = binomial_instance(n, np.random.default_rng(seed))
    assert _runs(inst) == GOLDEN[seed, n]


def test_mixed_sign_pair_ledgers():
    (a_i, b_i), (a_j, b_j) = MIXED_SIGN
    assert check_binomial_pair(a_i, b_i, a_j, b_j, 2, 0)
    inst = Instance.from_densities([BinomialPoly(a, b, 2, 0) for a, b in MIXED_SIGN])
    assert _runs(inst) == MIXED_GOLDEN
