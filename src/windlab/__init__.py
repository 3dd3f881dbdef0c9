"""windlab: winding numbers of planar stationary Gaussian processes.

Covariance models, exact Gaussian algebra (quadrant expectations, Hermite
coefficient tables, conditional covariances), closed-form and quadrature
moment formulas, circulant-embedding and Cholesky path samplers,
crossing-based winding counters, and a Monte Carlo harness that confronts
the two.
"""

from .covmodel import (CovarianceModel, CovFamily, ModelClass, alpha_family,
                       bargmann_fock, check_conditions, classify,
                       make_alpha_process, make_iid_model,
                       make_independent_model, make_regression_model,
                       model_from_spec, ornstein_uhlenbeck)
from .errors import (AliasingError, CapabilityError, ConfigError,
                     DegenerateConditioningError, DivergenceError, DomainError,
                     HypothesisError, ModelError, ParameterError,
                     ResolutionError, SamplerError, SingularityError,
                     WindlabError)
from .gauss import (ChaosCoefficients, ConditionalCov, QuadrantCorr,
                    chaos_coefficients, conditional_cov, generic_regression,
                    joint_cov_matrix, orthant_angle, quadrant_expectation,
                    quadrant_expectation_series)
from .harness import (ExperimentConfig, run_clt, run_expectation,
                      run_lemma_check, run_smoothing, run_variance,
                      simulate_windings, write_report)
from .moments import (MomentReport, chaos_projection_variances,
                      expectation_rate, variance_bound_two_alpha,
                      variance_rate_general, variance_rate_independent,
                      variance_WT_route)
from .pathgen import (CholeskySampler, CirculantSampler, GridSpec, SamplePath,
                      SmoothingLadder, export_path_csv, load_path_csv,
                      smooth_path)
from .winding import (SmoothedWinding, WindingResult, count_windings,
                      count_windings_arrays, smoothed_winding)

__version__ = "0.1.0"
