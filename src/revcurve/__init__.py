"""revcurve: posted-price revenue learning curves, end to end.

A distribution zoo with exact survival/revenue queries, the ERM family of
pricing algorithms, Monte Carlo learning-curve estimation with reproducible
counter-based seeding, adversarial lower-bound constructions, and rate-fit
diagnostics, plus a CLI front end (`revcurve --help`).

Each public name loads its home module on first access, so a process imports
only the modules it uses: `parse_learner` and `parse_dist` load neither the
curves nor the adversary module, and `import revcurve` alone loads no NumPy.
"""

import importlib

__version__ = "0.1.0"

# the package's one list of public names, each under its home module; a module
# marks its private names with a leading underscore and keeps no __all__ of its own
_HOMES = {
    "adversary": """BoundResult BudgetExceededError CoinGameResult GadgetParams GadgetReport GadgetStructureError
        ProbeConfig RateFn SlowRateConstruction WitnessPoint bound_learner_output build_slow_rate_distribution
        coin_game exp_lb_witness gadget_member monotone_envelope uniform_gadget validate_slow_rate verify_gadget""",
    "curves": """CurvePoint GapUndefinedError InsufficientDataError LearningCurve RateFit TEpsResult delta_eps
        estimate_gap expected_revenue_curve fit_exponential fit_power learning_curve t_eps""",
    "dist": """ContinuousDist Distribution FinitePMF InfeasibleParametersError OptResult SearchBudgetError TailRuleDist
        parse_dist tally two_point zoo zoo_names""",
    "empirical": "EmpiricalDist Sample dkw_bound sup_cdf_deviation",
    "learners": """Learner LearnerProcessError make_capped make_constant make_erm make_structural make_subprocess
        make_truncated parse_learner""",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
