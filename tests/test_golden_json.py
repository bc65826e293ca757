"""Density JSON pinned to the bytes of the recorded schema.

``Density.to_dict`` writes the family and then each dataclass field in
order, tuples as lists (``PiecewiseLinear`` nests its segments), and
``density_from_dict`` reads every family through one table of field readers.
The strings below are ``json.dumps(d.to_dict())`` of every agent of
``gen.every_family_instances()`` and of the seven example objects of the
README, recorded from the per-family writers and readers that the table
replaced, as are the error texts of malformed objects; any change to a key,
its order or a value's form fails here.
"""

import json

import pytest

from fairslice import density_from_dict
from fairslice.errors import FairsliceError
from gen import every_family_instances

#: The seven example agents of the README's instance file.
README_AGENTS = [
    {"family": "uniform"},
    {"family": "linear", "a": 1.0, "b": 0.5},
    {"family": "binomial_poly", "a": 3, "b": 0, "s": 2, "t": 0},
    {"family": "piecewise_linear", "breakpoints": [0.5],
     "segments": [{"slope": 1.0, "intercept": 0.5}, {"slope": -1.0, "intercept": 1.5}]},
    {"family": "piecewise_constant", "breakpoints": ["1/3"], "heights": [2, 0.5]},
    {"family": "gaussian_restricted", "mu": 0.5, "sigma": 0.2},
    {"family": "exponential_restricted", "rate": 2.0},
]

#: json.dumps(d.to_dict()) of every agent of every_family_instances(), in order.
FAMILY_JSON = [
    '{"family": "gaussian_restricted", "mu": 0.19737478365314315, "sigma": '
        '0.28838061730978326, "scale": 1.3325244133038903}',
    '{"family": "gaussian_restricted", "mu": 0.6209115698702549, "sigma": '
        '0.28838061730978326, "scale": 1.1235796611349183}',
    '{"family": "gaussian_restricted", "mu": 0.1777606385732302, "sigma": 0.2367053647175084, '
        '"scale": 1.2929744006725135}',
    '{"family": "gaussian_restricted", "mu": 0.1858476396951094, "sigma": 0.2367053647175084, '
        '"scale": 1.2762853234417242}',
    '{"family": "gaussian_restricted", "mu": 0.2735710974630169, "sigma": 0.2367053647175084, '
        '"scale": 1.1428138783452486}',
    '{"family": "gaussian_restricted", "mu": 0.6241994438571694, "sigma": 0.2367053647175084, '
        '"scale": 1.0642450272060693}',
    '{"family": "gaussian_restricted", "mu": 0.2226200123916408, "sigma": '
        '0.29744035902124655, "scale": 1.301361044280148}',
    '{"family": "gaussian_restricted", "mu": 0.297023635888521, "sigma": 0.29744035902124655, '
        '"scale": 1.2019925357395316}',
    '{"family": "gaussian_restricted", "mu": 0.3615108991330608, "sigma": '
        '0.29744035902124655, "scale": 1.1468122153350166}',
    '{"family": "gaussian_restricted", "mu": 0.4470739505923539, "sigma": '
        '0.29744035902124655, "scale": 1.1085585455404765}',
    '{"family": "gaussian_restricted", "mu": 0.56319461511719, "sigma": 0.29744035902124655, '
        '"scale": 1.1112659343263807}',
    '{"family": "gaussian_restricted", "mu": 0.6435600885528877, "sigma": '
        '0.29744035902124655, "scale": 1.150263668425311}',
    '{"family": "gaussian_restricted", "mu": 0.8386813388377531, "sigma": '
        '0.29744035902124655, "scale": 1.4208384956215936}',
    '{"family": "linear", "a": 0.5088146474837055, "b": 0.7127427779103397, "scale": '
        '1.0339656670579775}',
    '{"family": "linear", "a": 2.497820313520127, "b": 0.23477439877067588, "scale": '
        '0.6739977148594655}',
    '{"family": "linear", "a": -0.4255043503611976, "b": 1.2398475473075423, "scale": '
        '0.9736194195181372}',
    '{"family": "linear", "a": 0.8525834459997381, "b": 1.8144309179195306, "scale": '
        '0.4462845966467702}',
    '{"family": "linear", "a": 1.3509501112299105, "b": 1.3437319984553489, "scale": '
        '0.49524391170494714}',
    '{"family": "linear", "a": 2.977009039528606, "b": 1.3901699591567698, "scale": '
        '0.3473821049661718}',
    '{"family": "linear", "a": -0.4779292674373868, "b": 0.782241866425617, "scale": '
        '1.8406808527893161}',
    '{"family": "linear", "a": 1.5947331580386175, "b": 1.7375370933780296, "scale": '
        '0.39449230788887074}',
    '{"family": "linear", "a": 1.6132080848086976, "b": 1.5214690945990292, "scale": '
        '0.4295397700809212}',
    '{"family": "linear", "a": 1.410482384029791, "b": 1.2763124070941216, "scale": '
        '0.5046545298848533}',
    '{"family": "linear", "a": 1.7131458066506673, "b": 1.4470897328166594, "scale": '
        '0.43409133972617076}',
    '{"family": "linear", "a": 0.8766116975790464, "b": 0.6199743965263961, "scale": '
        '0.944929289218168}',
    '{"family": "linear", "a": 1.5853313620271665, "b": 1.006405624587059, "scale": '
        '0.5558423375921376}',
    '{"family": "binomial_poly", "a": 0.4124687034411901, "b": 1.9166729017183297, "s": 3, '
        '"t": 0, "scale": 0.495100956827565}',
    '{"family": "binomial_poly", "a": 0.5258135359274614, "b": 1.9479435269709375, "s": 3, '
        '"t": 0, "scale": 0.4809086686301697}',
    '{"family": "binomial_poly", "a": 1.4470268915624598, "b": 1.568652563041057, "s": 2, '
        '"t": 0, "scale": 0.4875682623059179}',
    '{"family": "binomial_poly", "a": 1.2795676178095279, "b": 0.6838232107943765, "s": 2, '
        '"t": 0, "scale": 0.9006203697741564}',
    '{"family": "binomial_poly", "a": 2.4399737792896166, "b": 0.6389811457038667, "s": 2, '
        '"t": 0, "scale": 0.6885602482201806}',
    '{"family": "binomial_poly", "a": 1.9711184293237636, "b": 0.30461447782461504, "s": 2, '
        '"t": 0, "scale": 1.039875098068311}',
    '{"family": "binomial_poly", "a": 1.4235924380225669, "b": 1.4734611239651687, "s": 2, '
        '"t": 0, "scale": 0.5133491474945132}',
    '{"family": "binomial_poly", "a": 1.995060672997091, "b": 1.7624885910924577, "s": 2, '
        '"t": 0, "scale": 0.41194495099083583}',
    '{"family": "binomial_poly", "a": 2.123778257501985, "b": 1.8205067380648443, "s": 2, '
        '"t": 0, "scale": 0.395501905586719}',
    '{"family": "binomial_poly", "a": 1.994751639469239, "b": 0.9991861863839309, "s": 2, '
        '"t": 0, "scale": 0.6009241975445868}',
    '{"family": "binomial_poly", "a": 1.9852733452382305, "b": 0.932280368292814, "s": 2, '
        '"t": 0, "scale": 0.6273375577464079}',
    '{"family": "binomial_poly", "a": 2.570896227332196, "b": 1.128608056170635, "s": 2, "t": '
        '0, "scale": 0.503632838313688}',
    '{"family": "binomial_poly", "a": 2.141809646951243, "b": 0.80527627829541, "s": 2, "t": '
        '0, "scale": 0.6582356217930014}',
    '{"family": "piecewise_linear", "breakpoints": [0.4277340969317129], "segments": '
        '[{"slope": -1.9399126318848077, "intercept": 2.172084171782137}, {"slope": '
        '-0.8155151793687608, "intercept": 1.691141042837867}], "scale": 0.7213751103052661}',
    '{"family": "piecewise_linear", "breakpoints": [0.25377500228381716], "segments": '
        '[{"slope": -0.5154592802036732, "intercept": 1.8965346146179813}, {"slope": '
        '-1.0277024416923493, "intercept": 2.02652912409464}], "scale": 0.6683673385977444}',
    '{"family": "piecewise_linear", "breakpoints": [0.32952628276405965, 0.519016570357815], '
        '"segments": [{"slope": -1.3957078296021472, "intercept": 2.2108601217912}, {"slope": '
        '-6.989317629105913, "intercept": 4.054101566254293}, {"slope": 2.6048032083451695, '
        '"intercept": -0.9254061263980158}], "scale": 0.7323213617040132}',
    '{"family": "piecewise_constant", "breakpoints": [0.04709969007713402, '
        '0.12081848202056988, 0.24356036993916652, 0.3450214580669385, 0.5139100580796233, '
        '0.6470899227150053, 0.7638483625038528, 0.9057474001233958], "heights": [0.05, '
        '2.1421974929114413, 2.1421974929114413, 2.1421974929114413, 2.1421974929114413, 0.05, '
        '0.0011670259200062235, 2.7238989959327447e-05, 6.357721463464879e-07], "scale": '
        '0.9909288755803889}',
    '{"family": "piecewise_constant", "breakpoints": [0.04709969007713402, '
        '0.12081848202056988, 0.24356036993916652, 0.3450214580669385, 0.5139100580796233, '
        '0.6470899227150053, 0.7638483625038528, 0.9057474001233958], "heights": '
        '[0.0010351688445561305, 0.04435072207096353, 1.9001601125846037, 1.9001601125846037, '
        '1.9001601125846037, 1.9001601125846037, 0.04435072207096353, 0.0010351688445561305, '
        '2.416137746359795e-05], "scale": 0.9914283822229086}',
    '{"family": "piecewise_constant", "breakpoints": [0.04709969007713402, '
        '0.12081848202056988, 0.24356036993916652, 0.3450214580669385, 0.5139100580796233, '
        '0.6470899227150053, 0.7638483625038528, 0.9057474001233958], "heights": '
        '[2.443923963005714e-05, 0.001047073557283407, 0.04486076698612758, 1.922012451355337, '
        '1.922012451355337, 1.922012451355337, 1.922012451355337, 0.04486076698612758, '
        '0.001047073557283407], "scale": 0.9880944261703912}',
    '{"family": "piecewise_constant", "breakpoints": [0.04709969007713402, '
        '0.12081848202056988, 0.24356036993916652, 0.3450214580669385, 0.5139100580796233, '
        '0.6470899227150053, 0.7638483625038528, 0.9057474001233958], "heights": '
        '[5.292871389422079e-07, 2.2676751641445348e-05, 0.0009715616102735926, '
        '0.04162553691474186, 1.7834024163970532, 1.7834024163970532, 1.7834024163970532, '
        '1.7834024163970532, 0.04162553691474186], "scale": 0.9918001580198531}',
    '{"family": "uniform", "scale": 1.0}',
    '{"family": "uniform", "scale": 1.0}',
    '{"family": "uniform", "scale": 1.0}',
    '{"family": "exponential_restricted", "rate": 3.0, "scale": 1.052395696491256}',
    '{"family": "exponential_restricted", "rate": 1.0, "scale": 1.5819767068693265}',
    '{"family": "exponential_restricted", "rate": 0.2, "scale": 5.516655566126994}',
    '{"family": "binomial_poly", "a": -0.5, "b": 1.0, "s": 2, "t": 0, "scale": 1.2}',
    '{"family": "binomial_poly", "a": 1.0, "b": 1.0, "s": 2, "t": 0, "scale": 0.75}',
]

#: json.dumps(density_from_dict(a).to_dict()) of each README agent, in order.
README_JSON = [
    '{"family": "uniform", "scale": 1.0}',
    '{"family": "linear", "a": 1.0, "b": 0.5, "scale": 1.0}',
    '{"family": "binomial_poly", "a": 3.0, "b": 0.0, "s": 2, "t": 0, "scale": 1.0}',
    '{"family": "piecewise_linear", "breakpoints": [0.5], "segments": [{"slope": 1.0, '
        '"intercept": 0.5}, {"slope": -1.0, "intercept": 1.5}], "scale": 1.0}',
    '{"family": "piecewise_constant", "breakpoints": [0.3333333333333333], "heights": [2.0, '
        '0.5], "scale": 1.0}',
    '{"family": "gaussian_restricted", "mu": 0.5, "sigma": 0.2, "scale": 1.0}',
    '{"family": "exponential_restricted", "rate": 2.0, "scale": 1.0}',
]

#: Malformed density objects and the error each gives: (object, error type name, text).
MALFORMED = [
    (None, "DomainError", "density object missing 'family'"),
    ({"family": "cauchy"}, "UnsupportedFamilyError", "unknown density family 'cauchy'"),
    ({"family": ["uniform"]}, "UnsupportedFamilyError", "unknown density family ['uniform']"),
    ({"family": "linear", "a": 1}, "DomainError", "'linear' density is missing 'b'"),
    ({"family": "linear", "a": "nan", "b": 1}, "DomainError",
     "malformed 'linear' density: Invalid literal for Fraction: 'nan'"),
    ({"family": "linear", "b": 1, "scale": "x"}, "DomainError",
     "malformed 'linear' density: Invalid literal for Fraction: 'x'"),
    ({"family": "uniform", "scale": "1/0"}, "DomainError", "malformed 'uniform' density: Fraction(1, 0)"),
    ({"family": "binomial_poly", "a": 1, "b": 1, "s": 2.5, "t": 0}, "DomainError",
     "exponent 2.5 is not an integer"),
    ({"family": "binomial_poly", "a": 1, "b": 1, "s": 2}, "DomainError",
     "'binomial_poly' density is missing 't'"),
    ({"family": "piecewise_linear", "breakpoints": [], "segments": 3}, "DomainError",
     "malformed 'piecewise_linear' density: 'int' object is not iterable"),
    ({"family": "piecewise_linear", "breakpoints": [], "segments": [{"intercept": 1}, {"slope": 1}]},
     "DomainError", "'piecewise_linear' density is missing 'slope'"),
    ({"family": "piecewise_constant", "breakpoints": [0.5]}, "DomainError",
     "'piecewise_constant' density is missing 'heights'"),
    ({"family": "piecewise_constant", "breakpoints": 3, "heights": [1]}, "DomainError",
     "malformed 'piecewise_constant' density: 'int' object is not iterable"),
    ({"family": "exponential_restricted", "rate": {}}, "DomainError",
     "malformed 'exponential_restricted' density: float() argument must be a string or a real number, "
     "not 'dict'"),
]


def family_agents():
    return [agent for instance in every_family_instances() for agent in instance.agents]


def test_family_json_is_the_recorded_bytes():
    agents = family_agents()
    assert [json.dumps(agent.to_dict()) for agent in agents] == FAMILY_JSON
    for agent in agents:
        assert density_from_dict(agent.to_dict()) == agent


def test_readme_json_is_the_recorded_bytes():
    densities = [density_from_dict(agent) for agent in README_AGENTS]
    assert [json.dumps(d.to_dict()) for d in densities] == README_JSON
    for d in densities:
        assert density_from_dict(d.to_dict()) == d


@pytest.mark.parametrize("obj, kind, text", MALFORMED, ids=lambda v: v if isinstance(v, str) else None)
def test_malformed_density_error_text(obj, kind, text):
    with pytest.raises(FairsliceError) as info:
        density_from_dict(obj)
    assert (type(info.value).__name__, str(info.value)) == (kind, text)
