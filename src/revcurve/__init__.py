"""revcurve: posted-price revenue learning curves, end to end.

A distribution zoo with exact survival/revenue queries, the ERM family of
pricing algorithms, Monte Carlo learning-curve estimation with reproducible
counter-based seeding, adversarial lower-bound constructions, and rate-fit
diagnostics, plus a CLI front end (`revcurve --help`).
"""

from .adversary import (
    BoundResult,
    CoinGameResult,
    GadgetParams,
    GadgetReport,
    ProbeConfig,
    SlowRateConstruction,
    WitnessPoint,
    bound_learner_output,
    build_slow_rate_distribution,
    coin_game,
    exp_lb_witness,
    gadget_member,
    monotone_envelope,
    uniform_gadget,
    validate_slow_rate,
    verify_gadget,
)
from .curves import (
    CurvePoint,
    LearningCurve,
    RateFit,
    delta_eps,
    estimate_gap,
    expected_revenue_curve,
    fit_exponential,
    fit_power,
    learning_curve,
    t_eps,
)
from .dist import Distribution, FinitePMF, OptResult, parse_dist, two_point, zoo, zoo_names
from .empirical import EmpiricalDist, Sample, dkw_bound, empirical_dist, sup_cdf_deviation
from .learners import (
    GrowthFns,
    Learner,
    capped_erm,
    erm,
    make_capped,
    make_constant,
    make_erm,
    make_structural,
    make_subprocess,
    make_truncated,
    parse_learner,
    structural_erm,
    truncated_erm,
)

__version__ = "0.1.0"
