"""GEV maximum-likelihood estimation via block maxima, with a consistency lab."""

__version__ = "0.1.0"

from .gev import (
    GevParams,
    SupportInterval,
    gev_cdf,
    gev_loglik,
    gev_loglik3,
    gev_loglik_grad_hess,
    gev_loglik_gradient,
    gev_loglik_max,
    gev_mode,
    gev_quantile,
    gev_sample,
    params_support,
    support_interval,
)
from .distributions import (
    NormalizingConstants,
    ReferenceDistribution,
    beta_tail,
    catalog,
    cauchy,
    exponential,
    from_spec,
    gev_reference,
    norm_constants,
    pareto,
    quantile_matched_constants,
    sample_iid,
)
from .blocks import (
    block_maxima,
    empirical_mean_loglik,
    ks_distance,
    normalize,
    read_values,
    write_values,
)
from .fit import (
    FitResult,
    feasibility_margin,
    fit_mle,
    is_feasible,
    kl_divergence,
    numeric_hessian,
    pwm_init,
    sample_loglik,
    sample_loglik_gradient,
)
from .lab import (
    GrowthRule,
    StudyConfig,
    StudyReport,
    check_crucial_lemma,
    check_norm_equivalence,
    check_slow_growth_obstruction,
    expected_loglik,
    parse_study_config,
    poly_log_growth,
    run_consistency_study,
    slow_growth,
    validate_study_config,
)

__all__ = [name for name in dir() if not name.startswith("_")]
