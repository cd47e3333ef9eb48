"""Sequence diagnostics: modes, log-concavity, eventual decrease, asymptotics.

Mode convention (documented, exercised by every mode count in this
package): an index n is a mode when the sequence strictly rises into n and
weakly falls out of it; the left boundary n = 1 counts when value(1) >=
value(2); the right boundary never counts; plateau runs collapse to their
first index (the strict-rise requirement does this on its own).

Every verdict is read off the log values: modes, minima and the
eventual-decrease index off the sign of each log step, log-concavity off
the sign of each second difference.  Float logs tie within FLOAT_TIE_RTOL,
so a plateau rendered in floating point does not sprout phantom modes, and
two logs of 0.0 tie.  Exact logs carry the bound ``ExactValue.log_error``:
a step or curvature that clears its summed bounds and roundings is decided
there, and only the others compare the exact values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import families as fam
from . import priors as pr
from .bipoly import poly_derivative, poly_eval, positive_roots
from .engine import METHOD_NORMAL, ExpectedPosteriorSequence
from .families import FamilySpec, DomainError
from .priors import DiscreteAtoms, Prior
from .util import ROUNDING, ExactValue

FLOAT_TIE_RTOL = 1e-13
# log-space guard for the float log-concavity scan; second differences of
# closed-form log values carry ~5e-15 rounding noise, signals sit above 1e-13
LC_FLOAT_GUARD = 1e-14
RATIO_RTOL = 1e-6  # the relative error bound past which a growth-law ratio is refused
_log_error = ExactValue.log_error


def _lists(seq) -> tuple[list, list[float]]:
    """(values, logs) of a sequence or of a raw list of floats or rationals;
    the rationals become ExactValues, whose logs carry ``log_error``; 0.0 logs to -inf."""
    if isinstance(seq, ExpectedPosteriorSequence):
        return seq.values, seq.log_values
    values = [
        v if isinstance(v, (float, ExactValue)) else ExactValue(v.numerator, v.denominator)
        for v in seq
    ]
    return values, [(math.log(v) if v else -math.inf) if isinstance(v, float) else v.log()
                    for v in values]


def _step_signs(seq) -> list[int]:
    """sign(value(n+1) - value(n)) for each adjacent pair, off the log step:
    floats tie within FLOAT_TIE_RTOL (so does a nan step, 0.0 to 0.0); exact
    values are compared exactly where the step is within its bounds."""
    values, logs = _lists(seq)
    if isinstance(values[0], float):
        return [0 if not abs(b - a) > FLOAT_TIE_RTOL else (1 if b > a else -1)
                for a, b in zip(logs, logs[1:])]
    return [
        (1 if b > a else -1)
        if abs(b - a) > _log_error(a) + _log_error(b) + ROUNDING * (abs(a) + abs(b))
        else y.compare(x)
        for a, b, x, y in zip(logs, logs[1:], values, values[1:])
    ]


def _steps_of(seq, what: str, min_horizon: int) -> list[int]:
    if (seq.horizon if isinstance(seq, ExpectedPosteriorSequence) else len(seq)) < min_horizon:
        raise DomainError(f"{what} needs a horizon of at least {min_horizon}")
    return _step_signs(seq)


def _extrema(steps: list[int]) -> list[int]:
    """The mode convention read off the steps: a rise into n, no rise out.
    The minima are the modes of the mirrored steps."""
    out = [1] if steps[0] <= 0 else []
    return out + [i + 1 for i in range(1, len(steps)) if steps[i - 1] > 0 >= steps[i]]


def detect_modes(seq) -> list[int]:
    """Indices (1-based) of local maxima under the documented convention."""
    return _extrema(_steps_of(seq, "mode detection", 3))


def detect_minima(seq) -> list[int]:
    """Local minima: the mode convention applied to the mirrored sequence
    (strict fall into n, weak rise out; left boundary counts; right never)."""
    return _extrema([-s for s in _steps_of(seq, "minimum detection", 3)])


def logconcavity_scan(seq) -> list[int]:
    """All interior n with value(n)^2 < value(n-1) value(n+1), exact."""
    values, logs = _lists(seq)
    if len(values) < 3:
        raise DomainError("log-concavity scan needs a horizon of at least 3")
    triples = enumerate(zip(logs, logs[1:], logs[2:]), start=2)
    if isinstance(values[0], float):  # a gap <= 0 skips the costlier scale
        # a zero between two positive values makes the one infinite gap
        return [n for n, (a, b, c) in triples if (gap := (a + c) - 2.0 * b) > 0.0
                and (gap > LC_FLOAT_GUARD * max(1.0, abs(2.0 * b), abs(a + c)) or gap == math.inf)]
    out = []
    for n, (a, b, c) in triples:
        gap = (a + c) - 2.0 * b
        # the bounds of the four logs, then a + c and the gap round once each
        err = _log_error(a) + 2.0 * _log_error(b) + _log_error(c)
        err += 2.0 * ROUNDING * (abs(a) + 2.0 * abs(b) + abs(c))
        x, y, z = values[n - 2 : n + 1]
        if gap > err or (not gap < -err and y * y < x * z):
            out.append(n)
    return out


def eventual_decrease_index(seq) -> int | None:
    """Smallest n with the sequence strictly decreasing on [n, N]; None if
    the tail does not decrease."""
    return _decrease_start(_steps_of(seq, "eventual-decrease scan", 2))


def _decrease_start(steps: list[int]) -> int | None:
    """The smallest n with steps[n-1:] all negative (steps[i] is the sign of
    psi(i+2) - psi(i+1)), or None; scanned from the end, so only the tail is read."""
    for last_rise in range(len(steps) - 1, -1, -1):
        if steps[last_rise] >= 0:
            return None if last_rise == len(steps) - 1 else last_rise + 2
    return 1


@dataclass
class DiagnosticsReport:
    modes: list[int]
    minima: list[int]
    logconcavity_violations: list[int]
    eventual_decrease: int | None
    log_convex_prefix_end: float | None = None
    critical_points: list[tuple[float, str]] = field(default_factory=list)
    asymptotic_ratios: list[tuple[int, float]] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "modes": self.modes,
            "mode_count": len(self.modes),
            "minima": self.minima,
            "logconcavity_violations": self.logconcavity_violations,
            "eventual_decrease": self.eventual_decrease,
            "log_convex_prefix_end": self.log_convex_prefix_end,
            "critical_points": [
                {"n": n, "kind": kind} for n, kind in self.critical_points
            ],
            "asymptotic_ratios": [
                {"n": n, "ratio": r} for n, r in self.asymptotic_ratios
            ],
        }


def _log_spaced(n_max: int) -> list[int]:
    if n_max <= 20:
        return list(range(1, n_max + 1))
    return sorted({1, n_max} | {max(1, round(n_max ** (i / 20))) for i in range(1, 20)})


def analyze(seq: ExpectedPosteriorSequence, prior=None) -> DiagnosticsReport:
    """Full scan of a sequence; adds the continuous-n analysis for the
    normal closed form and, when a continuous prior is supplied, the
    growth-law ratio table at log-spaced indices, each ratio within
    (8 + 2|log C| + 2n|log w| + log n) ulp and refused past RATIO_RTOL.  Checks
    the unimodality implication: an empty violation list must come with at most
    one interior mode.  The step signs are computed once for all three verdicts."""
    steps = _steps_of(seq, "mode detection", 3)
    modes, minima = _extrema(steps), _extrema([-s for s in steps])
    violations = logconcavity_scan(seq)
    decrease = _decrease_start(steps)
    report = DiagnosticsReport(modes, minima, violations, decrease)
    if not violations:
        interior = [m for m in modes if m > 1]
        if len(interior) > 1:
            raise AssertionError(
                f"log-concave scan empty but interior modes {interior} found; "
                "the unimodality implication failed"
            )
    if seq.method == METHOD_NORMAL:
        sigma = seq.family.sigma
        report.critical_points = normal_critical_points(
            float(seq.theta0), float(seq.theta1), sigma
        )
        report.log_convex_prefix_end = normal_log_convex_prefix_end(
            0.5 * (float(seq.theta0) + float(seq.theta1)), sigma
        )
    if prior is not None and not isinstance(prior, DiscreteAtoms):
        log_c, log_w = growth_law(seq.family, prior, seq.theta0, seq.theta1)
        for n in _log_spaced(seq.horizon):
            log_psi, log_asym = seq.log_values[n - 1], log_c + n * log_w + 0.5 * math.log(n)
            diff, err = log_psi - log_asym, (8 + 2 * (abs(log_c) - n * log_w) + math.log(n)) * 2.0**-52
            if not (math.isfinite(diff) and diff < 709 and (err <= RATIO_RTOL or diff + err < -746)):
                raise DomainError(f"the growth-law ratio exp({log_psi} - {log_asym}) at n={n} "
                                  f"is not a float within {RATIO_RTOL} relative")
            report.asymptotic_ratios.append((n, math.exp(diff)))
    return report


# ---------------------------------------------------------------------------
# asymptotic equivalents
# ---------------------------------------------------------------------------


def asymptotic_expected_posterior(family: FamilySpec, prior: Prior, theta0, theta1,
                                  n: float) -> float:
    """The asymptotic equivalent C sqrt(n) w^n of the expected posterior at n, the
    exp of its log from ``growth_law``; 0.0 where that log is below the float range."""
    log_c, log_w = growth_law(family, prior, theta0, theta1)
    return math.exp(log_c + n * log_w + 0.5 * math.log(n))


def growth_law(family: FamilySpec, prior: Prior, theta0, theta1) -> tuple[float, float]:
    """(log C, log w) of the growth law psi(n) ~ C sqrt(n) w^n.

    C = pi(theta0)/pi(mid) sqrt(I(mid)) / (2 sqrt(pi)), with mid = theta0 and w = 1 on
    the diagonal, else those of ``families.log_bhattacharyya_reduction``.  Requires a
    continuous prior with positive density at theta0 and mid, and a positive float
    I(mid), which underflows to 0.0 far out."""
    if isinstance(prior, DiscreteAtoms):
        raise DomainError("asymptotics require continuous prior")
    if float(theta0) == float(theta1):
        mid, log_w = theta0, 0.0
    else:
        mid, log_w = fam.log_bhattacharyya_reduction(family, theta0, theta1)
    lr = pr.prior_log_density(prior, theta0) - pr.prior_log_density(prior, mid)
    if not math.isfinite(lr):
        raise DomainError(f"prior density vanishes at theta0={theta0} or the midpoint")
    const = 0.5 * math.sqrt(fam.fisher_information(family, mid) / math.pi)
    if not const > 0.0:
        raise DomainError(f"the growth law's constant sqrt(I({float(mid)})/pi)/2 = {const} at "
                          f"theta0={theta0}, theta1={theta1} must be a positive float")
    return lr + math.log(const), log_w


# ---------------------------------------------------------------------------
# continuous-n analysis of the normal closed form
# ---------------------------------------------------------------------------


def normal_log_convex_prefix_end(theta: float, sigma: float) -> float:
    """The continuous n at which the sequence turns from log-convex to
    log-concave; 0 when it is log-concave from the start.

    The second n-derivative of the log closed form at midpoint parameter
    theta, times (n + s)^2 (2n + s)^3 with s = sigma^2, is the cubic
    (s^2 - 2n^2)(2n + s) - 4 theta^2 s (n + s)^2.  Divided by (n + s)^2 it
    strictly decreases for n > 0, so it has at most one positive root.
    """
    fam.require_sigma(sigma)
    th2, s = Fraction(theta) ** 2, Fraction(sigma) ** 2
    curvature = [s**3 - 4 * th2 * s**3, 2 * s**2 - 8 * th2 * s**2, -2 * s - 4 * th2 * s, -4]
    return max(positive_roots(curvature), default=0.0)


def normal_critical_points(theta0: float, theta1: float, sigma: float) -> list[tuple[float, str]]:
    """Continuous-n critical points of the normal sequence, ascending.

    The log-slope is the diagonal slope at the midpoint theta plus the log
    affinity L = -(theta0 - theta1)^2 / (4 s), s = sigma^2; times
    (n + s)(2n + s)^2 it is a cubic in n with exact rational coefficients,
    since every float input is a binary rational.  Each positive root is a
    "max" or a "min" by the exact sign of that cubic's derivative at the
    rounded root; a root where it is zero touches without crossing and is
    no extremum.  On the diagonal every coefficient is positive: no roots.
    """
    fam.require_sigma(sigma)
    t0, t1, s = Fraction(theta0), Fraction(theta1), Fraction(sigma) ** 2
    th2, aff = ((t0 + t1) / 2) ** 2, -((t0 - t1) ** 2) / (4 * s)
    slope = [th2 * s**2 + aff * s**3, s + th2 * s + 5 * aff * s**2, 2 + 8 * aff * s, 4 * aff]
    turn = poly_derivative(slope)
    out = []
    for n in positive_roots(slope):
        sign = poly_eval(turn, Fraction(n))
        if sign:
            out.append((n, "max" if sign < 0 else "min"))
    return out
