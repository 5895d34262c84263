"""Nonparametric goodness-of-fit tests over sequence-space smoothness balls.

Five test families (quadratic-form, kernel L2, chi-squared, distribution-
function, and the asymptotically least-favorable design), the smoothness-ball
geometry they share, and a replication-seeded Monte Carlo harness.
"""

from .chisq import (
    cell_counts,
    chisq_statistic,
    chisq_test,
    haar_statistic,
    population_chisq_functional,
    predicted_type2_chisq,
    standardized_chisq,
)
from .cvm import (
    CvmCalibration,
    calibrate_cvm,
    cvm_population,
    cvm_statistic,
    cvm_test,
)
from .design import (
    DetectionDesign,
    PriorDraw,
    least_favorable,
    minimax_statistic,
    minimax_test,
    predicted_type2_minimax,
    prior_profile,
    sample_bayes_prior,
    solve_design,
    solve_inverse_design,
)
from .errors import ConfigError, InfeasibleDesignError, NumericError, SeqtestError
from .experiments import (
    bayes_membership_rate,
    consistency_experiment,
    maxiset_decomposition_experiment,
    power_curve,
    write_csv,
    write_json,
)
from .kernels import (
    Kernel,
    box_kernel,
    epanechnikov_kernel,
    kernel_statistic,
    kernel_test,
    predicted_type2_kernel,
    triangle_kernel,
)
from .montecarlo import ExperimentConfig, MonteCarloSummary, build_plan, calibration_rates, run_monte_carlo
from .quadratic import (
    example_coefficients,
    predicted_type2_quadratic,
    quadratic_statistic,
    quadratic_test,
    scale_to_drift,
)
from .report import TestReport, normal_cdf, upper_quantile
from .sampling import (
    SequenceObservation,
    draw_sequence_observation,
    min_density,
    replication_blocks,
    replication_rngs,
    rng_for_replication,
    sample_iid,
)
from .spectra import (
    BesovBall,
    Spectrum,
    besov_seminorm,
    first_violated_tail,
    make_tail_alternative,
    project_besov,
)

__all__ = [name for name in dir() if not name.startswith("_")]
