"""One domain rule for every psi entry point, and one text per refusal.

The same bad inputs go through the scenario loader, the five sequence
routes, both oracles and the order checks.  Each is refused with
``DomainError`` (``ScenarioError`` from the scenario loader), while sure
coins stay legal atoms of a Bernoulli atom prior.  An unsupported pairing,
and a count that no atom can produce, read the same from every entry point
that meets them.
"""

import math
from fractions import Fraction as F

import pytest

from posterior_dynamics import engine, orders
from posterior_dynamics import families as fam
from posterior_dynamics import priors as pr
from posterior_dynamics import scenario as sc
from posterior_dynamics.families import DomainError
from posterior_dynamics.scenario import Scenario, ScenarioError, run_scenario, scenario_from_json

BERN, NORM, EXP = fam.bernoulli(), fam.normal(1.0), fam.exponential()
ATOMS = pr.atoms((0, F(1, 4)), (F(1, 2), F(1, 2)), (1, F(1, 4)))
UNIFORM, BETA, STDNORMAL, EXPPRIOR = pr.Uniform01(), pr.Beta(2, 3), pr.StdNormal(), pr.ExpPrior(1)
N = 3  # a legal horizon, also for a scenario's diagnostics

# (id, family, prior, theta0, theta1, n): one illegal input each
BAD_INPUTS = [
    ("atoms-theta1=2", BERN, ATOMS, F(1, 2), 2, N),
    ("atoms-theta1=-1/2", BERN, ATOMS, F(1, 2), F(-1, 2), N),
    ("atoms-theta0-not-an-atom", BERN, ATOMS, F(1, 4), F(1, 2), N),
    ("atoms-n=0", BERN, ATOMS, F(1, 2), F(1, 2), 0),
    ("uniform-theta0=0", BERN, UNIFORM, 0, F(1, 2), N),
    ("uniform-theta1=2", BERN, UNIFORM, F(1, 2), 2, N),
    ("uniform-theta1=-1/2", BERN, UNIFORM, F(1, 2), F(-1, 2), N),
    ("uniform-n=0", BERN, UNIFORM, F(1, 2), F(3, 4), 0),
    ("beta-theta0=0", BERN, BETA, 0, F(1, 2), N),
    ("beta-theta1=2", BERN, BETA, F(1, 2), 2, N),
    ("beta-theta1=-1/2", BERN, BETA, F(1, 2), F(-1, 2), N),
    ("beta-n=0", BERN, BETA, F(1, 2), F(3, 4), 0),
    ("normal-theta1=inf", NORM, STDNORMAL, 0.5, math.inf, N),
    ("normal-n=0", NORM, STDNORMAL, 0.5, 2.0, 0),
    ("exp-theta0=0", EXP, EXPPRIOR, 0.0, 2.0, N),
    ("exp-theta1=-1/2", EXP, EXPPRIOR, 1.0, -0.5, N),
    ("exp-n=0", EXP, EXPPRIOR, 1.0, 2.0, 0),
]
# the horizon is an int, and a bool is not one: each n=0 case again with 2.5 and True
BAD_INPUTS += [(f"{name[:-1]}{bad}", *case, bad) for name, *case, n in BAD_INPUTS if n == 0
               for bad in (2.5, True)]


def _scenario(family, prior, theta0, theta1, n):
    return scenario_from_json({
        "family": sc.family_to_json(family), "prior": sc.prior_to_json(prior),
        "theta0": sc.rational_to_json(theta0), "theta1": sc.rational_to_json(theta1),
        "horizon": n,
    })


ANY = (pr.DiscreteAtoms, pr.Uniform01, pr.Beta, pr.StdNormal, pr.ExpPrior)
# name: (priors taken, reads n, reads the prior, call)
ENTRIES = {
    "scenario_from_json": (ANY, True, True, _scenario),
    "discrete": (pr.DiscreteAtoms, True, True,
                 lambda f, p, t0, t1, n: engine.expected_posterior_discrete(p, t0, t1, n)),
    "uniform": (pr.Uniform01, True, True,
                lambda f, p, t0, t1, n: engine.expected_posterior_uniform(t0, t1, n)),
    "uniform_value": (pr.Uniform01, True, True,
                      lambda f, p, t0, t1, n: engine.log_expected_posterior_uniform(t0, t1, n)),
    "beta": (pr.Beta, True, True,
             lambda f, p, t0, t1, n: engine.expected_posterior_beta(p, t0, t1, n)),
    "normal": (pr.StdNormal, True, True,
               lambda f, p, t0, t1, n: engine.expected_posterior_normal(t0, t1, f.sigma, n)),
    "exponential": (pr.ExpPrior, True, True,
                    lambda f, p, t0, t1, n: engine.expected_posterior_exponential(
                        t0, t1, n, p.rate)),
    "quadrature": (ANY, True, True, engine.expected_posterior_quadrature),
    "bruteforce": (pr.DiscreteAtoms, True, True,
                   lambda f, p, t0, t1, n: engine.expected_posterior_bruteforce(p, t0, t1, n)),
    "posterior_law": (pr.DiscreteAtoms, True, True,
                      lambda f, p, t0, t1, n: orders.posterior_law(p, t0, n, under=t1)),
    "check_prior_criterion": (pr.DiscreteAtoms, False, True,
                              lambda f, p, t0, t1, n: orders.check_prior_criterion(p, t0, t1)),
    "expected_update_factor": (pr.DiscreteAtoms, False, False,
                               lambda f, p, t0, t1, n: orders.expected_update_factor(
                                   p.mean(), t0, t1)),
}


def _takes(entry, case) -> bool:
    priors, reads_n, reads_prior, _ = ENTRIES[entry]
    _, _, prior, _, _, n = case
    return (isinstance(prior, priors) and (reads_n or n == N)
            and (reads_prior or "not-an-atom" not in case[0]))


@pytest.mark.parametrize("entry,case", [
    pytest.param(entry, case, id=f"{entry}-{case[0]}")
    for entry in ENTRIES for case in BAD_INPUTS if _takes(entry, case)
])
def test_every_entry_point_refuses_the_same_inputs(entry, case):
    error = ScenarioError if entry == "scenario_from_json" else DomainError
    with pytest.raises(error):
        ENTRIES[entry][3](*case[1:])


def test_every_entry_point_is_exercised():
    assert {entry for entry in ENTRIES for case in BAD_INPUTS if _takes(entry, case)} == set(
        ENTRIES)


@pytest.mark.parametrize("theta0,theta1", [(1, 0), (0, F(1, 2)), (F(1, 2), 1)])
@pytest.mark.parametrize("entry", [e for e, spec in ENTRIES.items() if isinstance(ATOMS, spec[0])])
def test_sure_coins_stay_legal_under_an_atom_prior(entry, theta0, theta1):
    ENTRIES[entry][3](BERN, ATOMS, theta0, theta1, N)


def test_posterior_given_suffstat_refuses_a_non_int_count_of_trials():
    with pytest.raises(DomainError):
        pr.posterior_given_suffstat(ATOMS, 2.5, 1)


def test_a_scenario_built_directly_refuses_horizon_zero_through_the_gate():
    with pytest.raises(DomainError, match="horizon=0"):
        Scenario(BERN, ATOMS, F(1, 2), F(1, 2), 0)


def _refusal_text(call) -> tuple[type, str]:
    with pytest.raises((pr.UnsupportedConjugacyError, pr.ImpossibleObservationError)) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("family,prior,theta0,theta1", [
    (BERN, STDNORMAL, F(1, 2), F(3, 4)),
    (BERN, EXPPRIOR, F(1, 2), F(3, 4)),
    (NORM, UNIFORM, 0.5, 2.0),
    (EXP, STDNORMAL, 1.0, 2.0),
], ids=["bernoulli-stdnormal", "bernoulli-exp", "normal-uniform", "exponential-stdnormal"])
def test_an_unsupported_pairing_reads_the_same_everywhere(family, prior, theta0, theta1):
    texts = {
        _refusal_text(lambda: run_scenario(Scenario(family, prior, theta0, theta1, N))),
        _refusal_text(lambda: engine.expected_posterior_quadrature(
            family, prior, theta0, theta1, N)),
        _refusal_text(lambda: pr.marginal_suffstat_logpmf(family, prior, N, 0)),
    }
    text = f"unsupported conjugacy: {family.kind} with {type(prior).__name__}"
    assert texts == {(pr.UnsupportedConjugacyError, text)}


def test_a_count_no_atom_can_produce_reads_the_same_everywhere():
    """Two sure coins cannot produce one success in two trials; a fair coin can."""
    sure = pr.atoms((0, F(1, 2)), (1, F(1, 2)))
    texts = {
        _refusal_text(lambda: engine.expected_posterior_discrete(sure, 1, F(1, 2), 2, "exact")),
        _refusal_text(lambda: engine.expected_posterior_discrete(sure, 1, F(1, 2), 2, "float")),
        _refusal_text(lambda: orders.posterior_law(sure, 1, 2, under=F(1, 2))),
        _refusal_text(lambda: pr.posterior_given_suffstat(sure, 2, 1)),
    }
    assert texts == {(pr.ImpossibleObservationError,
                      "impossible observation under prior support: u_2=1")}
