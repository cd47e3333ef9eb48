"""Expected-posterior dynamics for one-dimensional exponential families.

Given observations generated under one parameter, how does the expected
posterior weight of another parameter evolve with the sample size?  This
package computes those sequences exactly or in closed form, detects their
modes and log-concavity structure, verifies the sqrt(n)-times-geometric
growth law, and audits the special-function inequalities behind the
log-concavity results.
"""

from .engine import (
    ExpectedPosteriorSequence,
    expected_posterior_beta,
    expected_posterior_bruteforce,
    expected_posterior_discrete,
    expected_posterior_exponential,
    expected_posterior_normal,
    expected_posterior_quadrature,
    expected_posterior_uniform,
)
from .families import (
    FamilySpec,
    DomainError,
    bernoulli,
    exponential,
    fisher_information,
    log_bhattacharyya_reduction,
    normal,
    suff_stat_log_density,
)
from .priors import (
    Beta,
    DiscreteAtoms,
    ExpPrior,
    StdNormal,
    Uniform01,
    atoms,
    marginal_suffstat_logpmf,
    mean_parameter,
    posterior_given_suffstat,
)
from .diagnostics import (
    DiagnosticsReport,
    analyze,
    asymptotic_expected_posterior,
    detect_modes,
    eventual_decrease_index,
    logconcavity_scan,
    normal_critical_points,
)
from .scenario import Scenario, load_scenario, run_scenario

__version__ = "0.1.0"
