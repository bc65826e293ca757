"""Golden cuts, values, grid sizes and query counts of ``max_nash``.

The cuts, values and grid sizes were pinned before the grid walk, the F(0)
constant and the one-cell last DP row went in, and again hold after the
walk became envelope-guided: each of those is a speed change that must leave
every Nash cut and value bit-identical.  The guided walk first finds the
MLRP upper envelope by switching-point searches (eval queries), then asks
one agent per grid point inside its stretches and all n agents, agent 0
first, elsewhere; the (eval, cut) counts pin that accounting.  The eval
counts were re-pinned when the switching-point search became a golden-section
search, whose envelope costs more evals, and again when the envelope's
searches began to share their prefix evals and the prefix table to take
v_k(0, 0) = 0 and v_k(0, 1) without asking again, and once more when the table
began to derive each grid point's entry for the agent whose cut made it
(anchor + j * epsilon/(8n)), with the product re-taken from evals at the DP's
cuts; every cut, value, grid size and cut count stayed the same.  A change to the walk's order, its merge rule, the
envelope or a family's cut or eval moves these values.  The instance for
(family, n) is ``gen.<family>_instance(n, default_rng(n))``.
"""

import numpy as np
import pytest

from fairslice import QueryLedger, max_nash
from fairslice.welfare import _nash_grid
from bisection import full_nash_grid
import gen

# (family, n, epsilon): cuts, Nash welfare, grid size, (eval, cut) counts
GOLDEN = {
    ('gaussian', 2, 0.03): ((0.0, 0.533895704574791, 1.0),
                            0.789532793841995, 844, (917, 846)),
    ('gaussian', 2, 0.01): ((0.0, 0.5338942316384064, 1.0),
                            0.789532794323841, 2528, (2601, 2530)),
    ('gaussian', 3, 0.03): ((0.0, 0.401583819689173, 0.6573611290729692, 1.0),
                            0.5768050920776017, 1407, (2956, 1414)),
    ('gaussian', 3, 0.01): ((0.0, 0.40137457211586347, 0.6575542760911836, 1.0),
                            0.5768053780763012, 4217, (8576, 4224)),
    ('gaussian', 4, 0.03): ((0.0, 0.28995397372703224, 0.5246181534345242, 0.7477151691460813, 1.0),
                            0.3920738842806403, 1782, (5557, 1796)),
    ('gaussian', 4, 0.01): ((0.0, 0.2901347855026566, 0.524618042277613, 0.7475441538490936, 1.0),
                            0.39207409077373934, 5344, (16243, 5358)),
    ('gaussian', 5, 0.03): ((0.0, 0.2006041532709831, 0.3691501619985724, 0.5320862028393307,
                             0.7243497586646993, 1.0),
                            0.3024387455721448, 2170, (8957, 2193)),
    ('gaussian', 5, 0.01): ((0.0, 0.20034398090474181, 0.3689958677453413, 0.5317631006330535,
                             0.7240571774886272, 1.0),
                            0.3024388814986753, 6507, (26305, 6530)),
    ('gaussian', 6, 0.03): ((0.0, 0.24467116475493986, 0.38515437043027057, 0.5171490956231853,
                             0.6534574166040422, 0.8074697407047549, 1.0),
                            0.25269530441235555, 2602, (13351, 2636)),
    ('gaussian', 6, 0.01): ((0.0, 0.24467116475495376, 0.3851543704302754, 0.5171490528322488,
                             0.6535775817510698, 0.807565290670358, 1.0),
                            0.25269533858710547, 7802, (39351, 7836)),
    ('linear', 2, 0.03): ((0.0, 0.489475607324995, 1.0),
                          0.5835367169768934, 624, (697, 626)),
    ('linear', 2, 0.01): ((0.0, 0.4900956700701212, 1.0),
                          0.5835370807453315, 1869, (1942, 1871)),
    ('linear', 3, 0.03): ((0.0, 0.41878189129108945, 0.7424725762248646, 1.0),
                          0.35717743288318116, 869, (1876, 874)),
    ('linear', 3, 0.01): ((0.0, 0.4192174083964979, 0.7431166012979007, 1.0),
                          0.35717767192748895, 2604, (5346, 2609)),
    ('linear', 4, 0.03): ((0.0, 0.22961048319627214, 0.490891869106616, 0.755230635738893, 1.0),
                          0.28346191682817923, 1232, (3888, 1240)),
    ('linear', 4, 0.01): ((0.0, 0.22986290455373978, 0.491201924439611, 0.7555177803071391, 1.0),
                          0.2834619684296275, 3692, (11268, 3700)),
    ('linear', 5, 0.03): ((0.0, 0.2219323599086841, 0.45665254140353334, 0.6682992040488491,
                           0.8473463172020707, 1.0),
                          0.2480540751836328, 1764, (7281, 1775)),
    ('linear', 5, 0.01): ((0.0, 0.221932359908682, 0.456652541403547, 0.6681042288841705,
                           0.8471883549903527, 1.0),
                          0.24805410632111508, 5288, (21377, 5299)),
    ('linear', 6, 0.03): ((0.0, 0.17994716324899931, 0.36478732144518805, 0.5419177896536601,
                           0.7077239066712042, 0.8616480570435298, 1.0),
                          0.192716645903935, 2040, (10493, 2054)),
    ('linear', 6, 0.01): ((0.0, 0.17994716324895807, 0.36478732144508336, 0.5421127826673671,
                           0.7080354690381883, 0.86164802437541, 1.0),
                          0.19271672252464878, 6116, (30873, 6130)),
    ('binomial', 2, 0.03): ((0.0, 0.5577041465567908, 1.0),
                            0.5106694817021409, 547, (620, 549)),
    ('binomial', 2, 0.01): ((0.0, 0.5583478637867597, 1.0),
                            0.5106699207179619, 1637, (1710, 1639)),
    ('binomial', 3, 0.03): ((0.0, 0.4360142661363151, 0.7879442795096527, 1.0),
                            0.3864687568505748, 955, (2019, 960)),
    ('binomial', 3, 0.01): ((0.0, 0.43646870727598064, 0.787667738096636, 1.0),
                            0.38646903866462934, 2862, (5833, 2867)),
    ('binomial', 4, 0.03): ((0.0, 0.2877291156028485, 0.5666372146241351, 0.80902770466783, 1.0),
                            0.2594572238647943, 1112, (3485, 1120)),
    ('binomial', 4, 0.01): ((0.0, 0.2880692514614938, 0.5666372146241565, 0.8087666908070903, 1.0),
                            0.2594573761546712, 3333, (10148, 3341)),
    ('binomial', 5, 0.03): ((0.0, 0.2848817359612542, 0.5443063847521727, 0.743699059156213,
                             0.8890425243045356, 1.0),
                            0.2139582104120154, 1460, (6033, 1471)),
    ('binomial', 5, 0.01): ((0.0, 0.28488173596125643, 0.5445795699412849, 0.744088790576114,
                             0.8893214010687418, 1.0),
                            0.2139583535824197, 4376, (17697, 4387)),
    ('binomial', 6, 0.03): ((0.0, 0.2256273089060903, 0.43575866729329527, 0.6169078340185703,
                             0.7680360474447463, 0.8947756775061121, 1.0),
                            0.18732846819346746, 1961, (10023, 1975)),
    ('binomial', 6, 0.01): ((0.0, 0.2258733617280902, 0.43621047102661253, 0.6172835223369707,
                             0.7681671235788055, 0.8948761654224158, 1.0),
                            0.1873285650746692, 5881, (29623, 5895)),
}


@pytest.mark.parametrize("family, n, eps", sorted(GOLDEN))
def test_max_nash_golden(family, n, eps):
    inst = getattr(gen, f"{family}_instance")(n, np.random.default_rng(n))
    ledger = QueryLedger()
    alloc, value = max_nash(inst, eps, ledger)
    size = len(_nash_grid(inst, eps, QueryLedger(), [{} for _ in range(n)]))
    assert (alloc.cuts, value, size, (ledger.eval_count, ledger.cut_count)) == GOLDEN[family, n, eps]


@pytest.mark.parametrize("family, n, eps", sorted(GOLDEN))
def test_guided_grid_is_the_all_agents_grid(family, n, eps):
    inst = getattr(gen, f"{family}_instance")(n, np.random.default_rng(n))
    assert _nash_grid(inst, eps, QueryLedger(), [{} for _ in range(n)]) == full_nash_grid(inst, eps, QueryLedger())
