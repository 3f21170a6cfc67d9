"""Extremes of higher-order Markov chains.

Copula transition kernels in unit-exponential margins, norming-sequence
recurrences with closed-form solutions, hidden tail chain simulators, and
Monte Carlo diagnostics that compare conditioned chains against their
limiting tail chains.
"""
from .measures import (AsymLogisticMeasure, AsymLogisticParams, HuslerReissMeasure,
                       LogisticMeasure, finite_difference_partial)
from .transforms import (exp_to_frechet, exp_to_gauss, exp_to_uniform, frechet_to_exp,
                         gauss_to_exp, uniform_to_exp)
from .mvnorm import mvn_cdf, mvn_logcdf
from .recurrence import (HomogeneousFamily, RecurrenceSolution, beta_sequence,
                         gaussian_family, gaussian_yule_walker, iterate_alpha,
                         solve_closed_form, solve_delta_inf, solve_delta_zero)
from .kernels import (GaussianCopulaModel, InvertedMaxStableModel, MarkovModel,
                      MaxStableModel, asym_logistic_model, gaussian_model,
                      husler_reiss_model, inverted_logistic_model, kernel_cdf,
                      kernel_quantile, kernel_sample, logistic_model,
                      sample_initial_conditioned, simulate_conditioned_chain,
                      simulate_stationary_chain)
from .tail_chain import (GaussianARTailChain, HuslerReissLocationTailChain,
                         InvertedLogisticScaleTailChain, LogisticLocationTailChain,
                         RegimeSwitchingTailChain, finite_level_remainder,
                         simulate_hidden_tail_chain, simulate_regime_tail_chain)
from .mc_lab import (ChiEstimate, ConvergenceReport, chi_estimate, chi_from_paths,
                     convergence_diagnostic, kernel_limit_gap, ks_distance,
                     quantile_bands, renormalize)
from .paths import PathEnsemble
from .utils import (BracketError, DomainError, NumericalError, ParameterError,
                    RootClusterAmbiguity)

__version__ = "0.1.0"
