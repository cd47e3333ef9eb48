"""Single-observation and step-wise order relations for Bernoulli scenarios.

Likelihood-ratio dominance on finite laws, the convex factor that decides
whether one more observation raises or lowers an expected posterior, the
exact one-step update identity, and the two-sided symmetry between the
theta0-posterior under theta1 and the theta1-posterior under theta0.
Everything here is exact rational arithmetic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from . import families as fam
from . import priors as pr
from .engine import expected_posterior_discrete
from .families import DomainError
from .priors import DiscreteAtoms, PosteriorVector

Real = Union[int, Fraction]


@dataclass(frozen=True)
class FiniteLaw:
    """Finitely supported law: strictly increasing support, exact weights."""

    support: tuple[Real, ...]
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.support) != len(self.probs):
            raise DomainError("support and probability lists differ in length")
        if any(p < 0 for p in self.probs):
            raise DomainError("law has a negative probability")
        if sum(self.probs) != 1:
            raise DomainError(f"law probabilities sum to {sum(self.probs)}, expected 1")
        for a, b in zip(self.support, self.support[1:]):
            if not a < b:
                raise DomainError("law support must be strictly increasing")

    @classmethod
    def from_pairs(cls, pairs) -> "FiniteLaw":
        """Group duplicate values, drop zero-probability points, sort."""
        grouped: dict = {}
        for value, prob in pairs:
            grouped[value] = grouped[value] + prob if value in grouped else prob
        items = sorted((v, p) for v, p in grouped.items() if p != 0)
        return cls(tuple(v for v, _ in items), tuple(p for _, p in items))

    def to_json(self) -> list[list[str]]:
        """[[value, prob], ...] as strings, in support order."""
        return [[str(v), str(p)] for v, p in zip(self.support, self.probs)]


def lr_dominates(law_hi: FiniteLaw, law_lo: FiniteLaw) -> bool:
    """True iff law_hi dominates law_lo in the likelihood-ratio order:
    ``_lr_holds`` on the laws' integer points, each probability over the
    common denominator of its law."""
    return _lr_holds(_integer_points(law_hi), _integer_points(law_lo))


def _integer_points(law: FiniteLaw) -> list[tuple[int, int, int]]:
    scale = math.lcm(*(p.denominator for p in law.probs))
    return [(v.numerator, v.denominator, p.numerator * (scale // p.denominator))
            for v, p in zip(law.support, law.probs)]


def _lr_holds(hi: list[tuple[int, int, int]], lo: list[tuple[int, int, int]]) -> bool:
    """The likelihood-ratio rule on integer points: ``hi`` dominates ``lo``.

    Each law is a list of points (num, den, weight), den > 0, at the value
    num/den, its weights its probabilities times one positive constant; the
    weights of a value given twice add up.  On the union support (a missing
    point weighs zero) the condition is P_hi(t') P_lo(t) >= P_hi(t) P_lo(t')
    for every pair t' > t; equivalent to the set form on finite supports.
    With h and l the two weights at a point, the constants cancel from both
    sides.  A point with h = l = 0 meets the condition with every other
    point; at the rest it says that h/l, taken in [0, inf], never
    decreases, so each point is compared with the one before it.  Every
    value goes over the common denominator of all, so the union is walked
    in order of integer numerators.
    """
    den = math.lcm(*(d for _, d, _ in hi), *(d for _, d, _ in lo))
    union: dict[int, list[int]] = {}
    for side, points in enumerate((hi, lo)):
        for num, d, weight in points:
            union.setdefault(num * (den // d), [0, 0])[side] += weight
    h_prev = l_prev = 0
    for value in sorted(union):
        h, l = union[value]
        if h == 0 and l == 0:
            continue
        if h * l_prev < h_prev * l:
            return False
        h_prev, l_prev = h, l
    return True


def _law_points(
    row: list[list[int]], i0: int, gen: tuple[int, int] | None
) -> list[tuple[int, int, int]]:
    """The law of the theta0-posterior after n = len(row) - 1 observations,
    as the integer points ``_lr_holds`` reads: one per count u_n = k that
    the law weighs.

    ``row[k]`` holds the prior's integer masses M_j of u_n = k and T is
    their total; the theta0-posterior there is M_0/T (index ``i0``).  The
    weight is C(n, k) T under the prior predictive (``gen`` None) and
    C(n, k) a^k b^(n-k) under the generating parameter a/(a + b) (``gen``
    = (a, b)).  A count that the generating parameter can produce but no
    atom can raises ImpossibleObservationError.
    """
    n = len(row) - 1
    points = []
    for k, masses in enumerate(row):
        total = sum(masses)
        weight = math.comb(n, k) * (total if gen is None else gen[0] ** k * gen[1] ** (n - k))
        if total == 0:
            if weight:
                raise pr.ImpossibleObservationError.at(n, k)
        elif weight:
            points.append((masses[i0], total, weight))
    return points


def _points_law(points: list[tuple[int, int, int]]) -> FiniteLaw:
    """The law that integer points of ``_law_points`` stand for: each
    weight divided by their total."""
    total = sum(weight for _, _, weight in points)
    return FiniteLaw.from_pairs((Fraction(mass, t), Fraction(weight, total))
                                for mass, t, weight in points)


def posterior_law(
    prior: DiscreteAtoms, theta0: Real, n: int, under: Real | None = None
) -> FiniteLaw:
    """Law of the theta0-posterior after n Bernoulli observations.

    ``under`` selects the generating parameter; None means the prior
    predictive (marginal) law.  Built by exact enumeration over the
    sufficient statistic, which carries the full distribution: the integer
    points of ``_law_points`` over the prior's integer masses.
    """
    gen_theta = None if under is None else Fraction(under)
    # the prior predictive draws from the atoms: theta0 stands in for theta1
    pr.require_inputs(fam.bernoulli(), prior, theta0, theta0 if under is None else gen_theta, n)
    form = prior.integer_form
    gen = None if gen_theta is None else (
        gen_theta.numerator, gen_theta.denominator - gen_theta.numerator)
    row = [form.masses(n, k) for k in range(n + 1)]
    return _points_law(_law_points(row, prior.thetas.index(theta0), gen))


def expected_update_factor(mean_theta: Real, theta0: Real, theta1: Real) -> Real:
    """The strictly convex factor V with V(theta0) = V(theta1) = 1:

        V(y) = theta0 theta1 / y + (1-theta0)(1-theta1) / (1-y)

    One more observation multiplies the expected theta0-posterior by
    V(posterior-mean parameter), so V below/above one decides the
    direction of the next step.
    """
    y = Fraction(mean_theta) if not isinstance(mean_theta, float) else mean_theta
    if not 0 < y < 1:
        raise DomainError(f"mean parameter {mean_theta} outside (0, 1)")
    for theta in (theta0, theta1):
        fam.bernoulli().require_theta(theta, closure=True)
    return theta0 * theta1 / y + (1 - theta0) * (1 - theta1) / (1 - y)


def one_step_expected_posterior(
    posterior: PosteriorVector | DiscreteAtoms, theta0: Real, theta1: Real
) -> Real:
    """Expectation, under theta1, of the next-step theta0-posterior given the
    current state (a posterior, or the prior): current weight times the update
    factor at the posterior-mean parameter.  Exact for exact posteriors."""
    q0 = posterior.weight_of(theta0)
    mean = pr.mean_parameter(posterior)
    return q0 * expected_update_factor(mean, theta0, theta1)


def check_prior_criterion(
    prior: DiscreteAtoms, theta0: Real, theta1: Real
) -> tuple[Real, str]:
    """One-observation expected posterior and its predicted direction.

    Returns (expected value, direction), direction "le" when the prior
    mean lies weakly between theta0 and theta1 (expected <= prior weight,
    equality iff the mean hits theta0 or theta1), "ge" otherwise.
    """
    pr.require_inputs(fam.bernoulli(), prior, theta0, theta1, 1)
    return _prior_criterion(prior, theta0, theta1)


def _prior_criterion(prior: DiscreteAtoms, theta0: Real, theta1: Real) -> tuple[Real, str]:
    """``check_prior_criterion`` past its gate, for a caller that has
    already gated its inputs."""
    expected = one_step_expected_posterior(prior, theta0, theta1)
    mean = prior.mean()
    lo, hi = min(theta0, theta1), max(theta0, theta1)
    return expected, "le" if lo <= mean <= hi else "ge"


def symmetry_check(
    prior: DiscreteAtoms, theta0: Real, theta1: Real, n: int
) -> tuple[Real, Real, bool]:
    """weight(theta1) * E_{theta1}[posterior at theta0] versus
    weight(theta0) * E_{theta0}[posterior at theta1]; exact equality."""
    seq01 = expected_posterior_discrete(prior, theta0, theta1, n, mode="exact")
    seq10 = expected_posterior_discrete(prior, theta1, theta0, n, mode="exact")
    lhs = prior.weight_of(theta1) * seq01.value(n).as_fraction()
    rhs = prior.weight_of(theta0) * seq10.value(n).as_fraction()
    return lhs, rhs, lhs == rhs


def scenario_verdicts(prior: DiscreteAtoms, theta0: Real, theta1: Real, horizon: int,
                      state: tuple[int, int], symmetry_n: int) -> dict[str, bool]:
    """One scenario's verdicts on every order check, in report order,
    behind one gate of its inputs.  The two-sided symmetry is decided at
    step ``symmetry_n``; every other check reads one table of the prior's
    integer masses, rows[n][k][j] = M_j(n, k) = W_j a_j^k b_j^(n-k) with
    theta_j = a_j/D and total T(n, k), up to the largest n a check asks
    for: the horizon, the three steps of the dominance checks and the
    successors of ``state``."""
    pr.require_inputs(fam.bernoulli(), prior, theta0, theta1, horizon)
    form = prior.integer_form
    atoms, d = form.atoms, form.denom
    n_state, k_state = state
    top = max(horizon, 3, n_state + 1)
    rows = [[form.masses(n, k) for k in range(n + 1)] for n in range(top + 1)]
    totals = [list(map(sum, row)) for row in rows]

    # martingale / submartingale over every reachable state (T > 0) before
    # the horizon.  Atom j weighs M_j/T there, M_j a_j/T_up after a success
    # and M_j b_j/T_dn after a failure, and a missing successor (T = 0, so
    # its masses are 0) weighs 0 over 1; both sides are scaled by D T T_up T_dn
    ok_martingale = ok_submartingale = True
    for n in range(horizon):
        for k, now in enumerate(rows[n]):
            t = totals[n][k]
            if not t:
                continue
            up, dn = rows[n + 1][k + 1], rows[n + 1][k]
            t_up, t_dn = totals[n + 1][k + 1] or 1, totals[n + 1][k] or 1
            s = sum(a * m for (_, a, _), m in zip(atoms, now))  # D T times the mean parameter
            for (_, a, b), m, m_up, m_dn in zip(atoms, now, up, dn):
                scaled_now = d * m * t_up * t_dn
                # expectation under the prior predictive: exact martingale
                if s * m_up * t_dn + (d * t - s) * m_dn * t_up != scaled_now:
                    ok_martingale = False
                # expectation under the atom itself: submartingale
                if (a * m_up * t_dn + b * m_dn * t_up) * t < scaled_now:
                    ok_submartingale = False

    # likelihood-ratio dominance of each atom's own-parameter law over the
    # marginal law, and of the lowest atom's marginal law over its law under
    # the highest atom, on the integer points of posterior_law
    thetas = prior.thetas
    low, high = thetas.index(min(thetas)), thetas.index(max(thetas))
    own = all(_lr_holds(_law_points(rows[n], i, (a, b)), _law_points(rows[n], i, None))
              for i, (_, a, b) in enumerate(atoms) for n in (1, 2, 3))
    extreme = all(_lr_holds(_law_points(rows[n], low, None),
                            _law_points(rows[n], low, atoms[high][1:]))
                  for n in (1, 2))

    # one-observation expected posterior and its direction; the
    # own-parameter expectation never falls below the prior weight
    pi0, mean = prior.weight_of(theta0), prior.mean()
    expected, direction = _prior_criterion(prior, theta0, theta1)
    ok_direction = ((expected <= pi0 if direction == "le" else expected >= pi0)
                    and (expected == pi0) == (mean == theta0 or mean == theta1)
                    and expected >= 0)
    own_expected, _ = _prior_criterion(prior, theta0, theta0)
    ok_eup = own_expected >= pi0 and not (
        len(thetas) > 1 and mean != theta0 and own_expected == pi0)

    # one-step identity vs direct enumeration at ``state``, if reachable
    ok_onestep = True
    if totals[n_state][k_state]:
        i0 = thetas.index(theta0)
        post = pr.posterior_given_suffstat(prior, n_state, k_state)
        predicted = one_step_expected_posterior(post, theta0, theta1)
        up, dn = rows[n_state + 1][k_state + 1], rows[n_state + 1][k_state]
        t1 = Fraction(theta1)
        direct = (t1 * Fraction(up[i0], totals[n_state + 1][k_state + 1])
                  + (1 - t1) * Fraction(dn[i0], totals[n_state + 1][k_state]))
        ok_onestep = predicted == direct

    _, _, symmetric = symmetry_check(prior, theta0, theta1, symmetry_n)
    return {"martingale_exact": ok_martingale, "submartingale_exact": ok_submartingale,
            "own_law_dominates_marginal": own, "direction_criterion": ok_direction,
            "expected_above_prior": ok_eup, "one_step_identity": ok_onestep,
            "two_sided_symmetry": symmetric, "extreme_atom_dominance": extreme}


# ---------------------------------------------------------------------------
# randomized scenario generation and the dominance-reversal search
# ---------------------------------------------------------------------------


def random_rational_scenario(rng: random.Random, max_atoms: int = 4) -> DiscreteAtoms:
    """Random atom prior: interior atoms on the 1/20 grid, small rational weights."""
    count = rng.randint(2, max_atoms)
    thetas = set()
    while len(thetas) < count:
        thetas.add(Fraction(rng.randint(1, 19), 20))
    raw = [rng.randint(1, 9) for _ in range(count)]
    total = sum(raw)
    weights = [Fraction(r, total) for r in raw]
    return DiscreteAtoms(tuple(zip(sorted(thetas), weights)))


def find_lr_reversal(seed: int) -> dict | None:
    """Search up to 2000 random 3-atom scenarios for a reversed dominance witness.

    The expected direction -- the marginal law of the theta0-posterior
    dominating its law under a different generating atom -- provably holds
    when the generating atom is extreme, so the search scans interior
    generating atoms.  Each trial reads one table of integer masses, as
    ``scenario_verdicts`` does; only a witness's laws become FiniteLaws.
    Returns a witness record or None.
    """
    rng = random.Random(seed)
    for trial in range(2000):
        prior = random_rational_scenario(rng, max_atoms=3)
        if len(prior.atoms) != 3:
            continue
        form = prior.integer_form
        rows = [[form.masses(n, k) for k in range(n + 1)] for n in range(4)]
        middle = form.atoms[1][1:]  # the middle atom's (a, b)
        for i0 in (0, 2):
            for n in (1, 2, 3):
                marginal = _law_points(rows[n], i0, None)
                generated = _law_points(rows[n], i0, middle)
                if not _lr_holds(marginal, generated) and _lr_holds(generated, marginal):
                    return {
                        "trial": trial,
                        "atoms": [[str(t), str(w)] for t, w in prior.atoms],
                        "theta0": str(prior.thetas[i0]),
                        "generating_theta": str(prior.thetas[1]),
                        "n": n,
                        "generated_law": _points_law(generated).to_json(),
                        "marginal_law": _points_law(marginal).to_json(),
                    }
    return None
