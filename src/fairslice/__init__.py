"""Contiguous fair cake division under monotone likelihood ratios.

The cake is [0, 1]; agents value intervals through integrable densities that
satisfy the monotone likelihood ratio property.  Everything runs through a
Robertson-Webb cut/eval oracle with query accounting, with brute-force audit
oracles on the side.
"""

from .audit import EnvyMatrix, brute_force_optimum, envy_matrix, is_perfect, \
    pareto_dominated_on_grid, welfare_metrics
from .density import (
    BinomialPoly,
    Density,
    DensityBounds,
    ExponentialRestricted,
    GaussianRestricted,
    Linear,
    PiecewiseConstant,
    PiecewiseLinear,
    Uniform,
    density_from_dict,
)
from .mlrp import (
    IntervalInstance,
    MlrpReport,
    check_binomial_pair,
    check_fosd,
    check_gaussian_pair,
    check_pair_grid,
    check_ratio_properties,
    detect_order,
    perturb,
    perturbation_density,
    verify_instance,
)
from .oracle import Division, Instance, QueryLedger, cut_query, eval_query
from .plef import PlConfig, RecursionStats, pl_config, pl_ef
from .ripple import Allocation, RippleDivision, bin_search, envy_free, iteration_cap, \
    rd_chain, ripple_to_allocation, ripple_window
from .welfare import (
    MovingKnifeRun,
    max_egalitarian,
    max_nash,
    max_social_welfare,
    mk_chain,
    reorder_to_mlrp,
    switching_point,
)

__version__ = "0.1.0"
