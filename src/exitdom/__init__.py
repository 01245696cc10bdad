"""Exit-time stochastic domination toolkit.

Exact biased-walk exit tables, discrete and continuous Girsanov reweighting,
analytic Brownian survival formulas, coupled squared-modulus SDE simulation,
and the dominance/independence verification layer on top of them.
"""

from .walk import (
    MODE_FLOAT,
    MODE_RATIONAL,
    JointExitTable,
    SurvivalCurve,
    WalkSpec,
    exit_joint,
    mean_exit,
    survival_at,
    survival_pmf,
    upper_exit_prob,
)
from .walk_girsanov import (
    check_independence_discrete,
    factorization_check_discrete,
    reweighted_survival_walk,
)
from .bm import (
    DriftSpec,
    dominance_scan_continuous,
    drifted_survival,
    drifted_survival_quad,
    driftless_survival,
)
from .mc import (
    CoupledStats,
    ExitSamples,
    RngStreamSpec,
    check_independence_continuous,
    reweighted_survival_bm,
    simulate_exit_bm,
    simulate_y_coupled,
)
from .dominance import (
    CONSISTENT,
    DOMINATES,
    INCONCLUSIVE,
    VIOLATES,
    DominanceReport,
    dominance_scan_discrete,
    empirical_dominance_test,
)

__version__ = "0.1.0"
