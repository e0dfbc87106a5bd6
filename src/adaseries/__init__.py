"""Adaptive orthogonal-series estimation of densities and regression functions.

Series estimators on the trigonometric basis of [0, 1] with four
dimension selectors (penalized contrast, model selection, leave-one-out
cross-validation, and the infeasible ISE oracle), generators for three
weak-dependence sampling schemes, and a Monte Carlo harness that
reproduces the simulation risk tables and percentile bands.
"""

from .basis import RateResult, TrigBasis, WeightSequence, optimal_dimension
from .dependence import (gen_density_sample, gen_regression_sample, marginal_G_case3,
                         stream, uniform_series)
from .estimators import CoefficientTable, empirical_coefficients, sigma_y_hat
from .harness import (BandTable, ConfigError, ExperimentConfig, CalibrationResult, RepRecord,
                      RunResults, SummaryRow, calibrate_constant, calibrated_config,
                      compute_bands, run_experiment, run_replication, table_study)
from .selection import (Lemma1Audit, lemma1_audit, penalized_profile, penalty_vector,
                        select_cv, select_ms, select_with_pens, theorem_constant)
from .targets import (DensityTarget, MarginalLaw, RegressionTarget, density_f1,
                      density_f2, regression_f1, regression_f2, true_coefficients,
                      uniform_density)

__version__ = "0.1.0"
