"""Sequence diagnostics: modes, log-concavity, eventual decrease, asymptotics.

Mode convention (documented, exercised by every mode count in this
package): an index n is a mode when the sequence strictly rises into n and
weakly falls out of it; the left boundary n = 1 counts when value(1) >=
value(2); the right boundary never counts; plateau runs collapse to their
first index (the strict-rise requirement does this on its own).

Modes, minima and the eventual-decrease index are read off one list: the
sign of value(n+1) - value(n) for each adjacent pair.  Floats tie within a
relative 1e-13, so that a genuine plateau rendered in floating point does
not sprout phantom modes.  Rationals are converted to float once per value
and each pair is decided by ``certified_sign``, or exactly where it cannot
decide; the exact log-concavity scan follows the same rule on products.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import families as fam
from . import priors as pr
from .bipoly import poly_derivative, poly_eval, positive_roots
from .engine import METHOD_NORMAL, ExpectedPosteriorSequence
from .families import FamilySpec, DomainError
from .priors import DiscreteAtoms, Prior
from .util import certified_sign, float_or_inf

FLOAT_TIE_RTOL = 1e-13
# log-space guard for the float log-concavity scan; second differences of
# closed-form log values carry ~5e-15 rounding noise, signals sit above 1e-13
LC_FLOAT_GUARD = 1e-14


def _step_signs(values) -> list[int]:
    """sign(values[i+1] - values[i]) for each adjacent pair: floats tie
    within FLOAT_TIE_RTOL; rationals are decided by certified_sign on one
    float per value, and exactly where it returns 0."""
    if isinstance(values[0], float):
        return [
            0 if math.isclose(a, b, rel_tol=FLOAT_TIE_RTOL, abs_tol=0.0) else (1 if b > a else -1)
            for a, b in zip(values, values[1:])
        ]
    floats = [float_or_inf(v) for v in values]
    signs = [certified_sign(y, 1, x, 1) for x, y in zip(floats, floats[1:])]
    for i, sign in enumerate(signs):
        if sign == 0:
            a, b = values[i], values[i + 1]
            signs[i] = (b > a) - (b < a)
    return signs


def _values_of(seq) -> list:
    return seq.values if isinstance(seq, ExpectedPosteriorSequence) else list(seq)


def _steps_of(seq, what: str, min_horizon: int) -> list[int]:
    values = _values_of(seq)
    if len(values) < min_horizon:
        raise DomainError(f"{what} needs a horizon of at least {min_horizon}")
    return _step_signs(values)


def _extrema(steps: list[int], sign: int) -> list[int]:
    """The mode convention on sign * value: sign 1 finds modes, -1 minima."""
    steps = [sign * s for s in steps]
    out = [1] if steps[0] <= 0 else []
    return out + [i + 1 for i in range(1, len(steps)) if steps[i - 1] > 0 and steps[i] <= 0]


def detect_modes(seq) -> list[int]:
    """Indices (1-based) of local maxima under the documented convention."""
    return _extrema(_steps_of(seq, "mode detection", 3), 1)


def detect_minima(seq) -> list[int]:
    """Local minima: the mode convention applied to the mirrored sequence
    (strict fall into n, weak rise out; left boundary counts; right never)."""
    return _extrema(_steps_of(seq, "minimum detection", 3), -1)


def logconcavity_scan(seq) -> list[int]:
    """All interior n with value(n)^2 < value(n-1) value(n+1), exact."""
    values = _values_of(seq)
    n = len(values)
    if n < 3:
        raise DomainError("log-concavity scan needs a horizon of at least 3")
    if isinstance(values[0], float):
        logs = (
            seq.log_values
            if isinstance(seq, ExpectedPosteriorSequence)
            else [math.log(v) for v in values]
        )
        out = []
        for i in range(1, n - 1):
            lhs = 2.0 * logs[i]
            rhs = logs[i - 1] + logs[i + 1]
            scale = max(1.0, abs(lhs), abs(rhs))
            if rhs - lhs > LC_FLOAT_GUARD * scale:
                out.append(i + 1)
        return out
    # exact branch: the floats decide where certified_sign can (each side is
    # two conversions and one product), the rest escalate to exact products
    floats = [float_or_inf(v) for v in values]
    out = []
    for i in range(1, n - 1):
        a, b, c = floats[i - 1 : i + 2]
        sign = certified_sign(b * b, 3, a * c, 3) if min(a, b, c) >= sys.float_info.min else 0
        if sign < 0 or (sign == 0 and values[i] * values[i] < values[i - 1] * values[i + 1]):
            out.append(i + 1)
    return out


def eventual_decrease_index(seq) -> int | None:
    """Smallest n with the sequence strictly decreasing on [n, N]; None if
    the tail does not decrease."""
    return _decrease_start(_steps_of(seq, "eventual-decrease scan", 2))


def _decrease_start(steps: list[int]) -> int | None:
    last_rise = max((i for i, s in enumerate(steps) if s >= 0), default=None)
    if last_rise is None:
        return 1
    if last_rise == len(steps) - 1:
        return None
    return last_rise + 2


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
    points = {1, n_max}
    for i in range(1, 20):
        points.add(max(1, round(n_max ** (i / 20))))
    return sorted(points)


def analyze(seq: ExpectedPosteriorSequence, prior=None) -> DiagnosticsReport:
    """Full scan of a sequence; adds the continuous-n analysis for the
    normal closed form and, when a continuous prior is supplied, the
    growth-law ratio table at log-spaced indices.  Checks the unimodality
    implication: an empty violation list must come with at most one
    interior mode.  The step signs are computed once for all three step
    verdicts."""
    steps = _steps_of(seq, "mode detection", 3)
    modes, minima = _extrema(steps, 1), _extrema(steps, -1)
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
        args = (seq.family, prior, seq.theta0, seq.theta1)
        for n in _log_spaced(seq.horizon):
            asym = asymptotic_expected_posterior(*args, n)
            if asym > 0.0:
                ratio = float(seq.value(n)) / asym
            else:  # the asymptote underflows; divide in log space instead
                log_scale, const = _asymptote_parts(*args, n)
                log_asym = log_scale + math.log(const * math.sqrt(n))
                ratio = math.exp(seq.log_values[n - 1] - log_asym)
            report.asymptotic_ratios.append((n, ratio))
    return report


# ---------------------------------------------------------------------------
# asymptotic equivalents
# ---------------------------------------------------------------------------


def asymptotic_expected_posterior(
    family: FamilySpec, prior: Prior, theta0, theta1, n: float
) -> float:
    """The asymptotic equivalent of the expected posterior at n.

    Diagonal: sqrt(I(theta0)) / (2 sqrt(pi)) * sqrt(n).  Off-diagonal the
    same constant at the midpoint parameter, scaled by the prior density
    ratio and the n-th power of the affinity.  Requires a continuous prior
    with positive density at the relevant parameter.
    """
    log_scale, const = _asymptote_parts(family, prior, theta0, theta1, n)
    return math.exp(log_scale) * const * math.sqrt(n)


def _asymptote_parts(family: FamilySpec, prior: Prior, theta0, theta1, n: float):
    """(log_scale, const) with asymptote exp(log_scale) * const * sqrt(n);
    log_scale is 0 on the diagonal."""
    if isinstance(prior, DiscreteAtoms):
        raise DomainError("asymptotics require continuous prior")
    t0, t1 = float(theta0), float(theta1)
    if t0 == t1:
        if pr.prior_log_density(prior, t0) == float("-inf"):
            raise DomainError(f"prior density vanishes at theta={t0}")
        return 0.0, 0.5 * math.sqrt(fam.fisher_information(family, t0) / math.pi)
    mid, affinity = fam.bhattacharyya_reduction(family, t0, t1)
    lr = pr.prior_log_density(prior, t0) - pr.prior_log_density(prior, mid)
    if not math.isfinite(lr):
        raise DomainError("prior density vanishes at theta0 or the midpoint")
    const = 0.5 * math.sqrt(fam.fisher_information(family, mid) / math.pi)
    return lr + n * math.log(affinity), const


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
    if not sigma > 0:
        raise DomainError(f"sigma={sigma} must be > 0")
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
    if not sigma > 0:
        raise DomainError(f"sigma={sigma} must be > 0")
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
