"""Exact polynomial rows and the positivity certificate that closes the
log-concavity proof for the exponential observation model.

A polynomial in (m, t) is a list of rows: ``rows[i]`` lists the ascending
t-coefficients of m^i.  Rows carry no trailing zeros and the list no
trailing empty rows, so equal polynomials are equal lists.

``positive_roots`` is the one real-root isolator of the package: Sturm
counts on the square-free part, from a primitive pseudo-remainder
sequence over the integers, then exact bisection until each root's
interval rounds to a single float.

``certify_logconcavity_polynomials`` rebuilds the discriminant identity
E = A^2 - B^2 C from the three source polynomials, checks every row of E
against the expected expansion, and certifies each row of A and E positive
for t >= 0 with ``positive_on_halfline``.  The five minima the paper states
are taken over t = 0 and the positive roots of the row's derivative.
1 - Q_n(eta_n) = (A + B sqrt(C))/D with positive D and m = n - 2 >= 0, so
the certificate implies Q_n(eta_n) < 1 for all n >= 2, t >= 0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Union

Coeff = Union[int, Fraction]
Poly = list[list[Coeff]]


class CertificationError(AssertionError):
    """An exact coefficient check of the certificate failed."""


def _trim(rows: Poly) -> Poly:
    for row in rows:
        while row and row[-1] == 0:
            row.pop()
    while rows and not rows[-1]:
        rows.pop()
    return rows


def poly_mul(p: Poly, q: Poly) -> Poly:
    """Product of two polynomials in (m, t)."""
    if not p or not q:
        return []
    width = max(map(len, p)) + max(map(len, q)) - 1
    out: Poly = [[0] * width for _ in range(len(p) + len(q) - 1)]
    for i, p_row in enumerate(p):
        for j, q_row in enumerate(q):
            for k, a in enumerate(p_row):
                for h, b in enumerate(q_row):
                    out[i + j][k + h] += a * b
    return _trim(out)


def poly_sub(p: Poly, q: Poly) -> Poly:
    """Difference p - q of two polynomials in (m, t)."""
    width = max(map(len, p + q), default=0)
    out: Poly = [[0] * width for _ in range(max(len(p), len(q)))]
    for sign, poly in ((1, p), (-1, q)):
        for i, row in enumerate(poly):
            for j, c in enumerate(row):
                out[i][j] += sign * c
    return _trim(out)


def poly_eval(coeffs: Sequence[Coeff], t: float | Fraction):
    """Horner evaluation of an ascending univariate coefficient list."""
    total = 0
    for c in reversed(coeffs):
        total = total * t + c
    return total


def poly_derivative(coeffs: Sequence[Coeff]) -> list:
    """Derivative of an ascending univariate coefficient list."""
    return [k * c for k, c in enumerate(coeffs)][1:]


# ---------------------------------------------------------------------------
# the certified polynomials (in m = n - 2 and t = the rate parameter)
# ---------------------------------------------------------------------------

POLY_A: Poly = [[132, -48, 2, 20, 8], [302, -56, 4, 8], [230, -16, 4], [72], [8]]
POLY_B: Poly = [[60, 0, -10, -4], [74, 0, -4], [30], [4]]
POLY_C: Poly = [[1, 0, 4], [4], [4]]

# expected rows of E = A^2 - B^2 C (the m^8 terms cancel)
EXPECTED_E_ROWS: Poly = [
    [13824, -12672, -10368, 5568, 4896, 1152, 16],
    [56448, -43776, -21120, 16096, 9200, 1312],
    [92928, -60128, -13408, 17664, 6208, 480],
    [81184, -42336, -416, 9344, 1824, 64],
    [41024, -16192, 2816, 2432, 208],
    [12064, -3200, 1088, 256],
    [1920, -256, 128],
    [128],
]

# approximate minima over t >= 0 that the paper states, reported alongside
# the exact verdict
EXPECTED_MINIMA = {
    ("A", 0): (108.0, 0.73),
    ("E", 3): (49317.0, 1.09),
    ("E", 2): (43609.0, 1.04),
    ("E", 1): (18075.0, 0.97),
    ("E", 0): (1981.0, 0.90),
}


def _pdivmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Pseudo-division over the integers: (q, r) with |lc b|^k a = q b + r,
    deg r < deg b, for the k reduction steps taken (b nonzero, no trailing
    zeros).  The scale is positive, so r is a positive multiple of the
    remainder of a by b and q one of the quotient."""
    a, lead = list(a), b[-1]
    scale, sign = abs(lead), 1 if lead > 0 else -1
    quotient = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        shift, c = len(a) - len(b), sign * a[-1]
        quotient = [scale * x for x in quotient]
        quotient[shift] += c
        a = [scale * x for x in a]
        for i, d in enumerate(b):
            a[shift + i] -= c * d
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return quotient, a


def _primitive(f: list[int]) -> list[int]:
    """f divided by the gcd of its coefficients."""
    g = math.gcd(*f)
    return [c // g for c in f]


def _sturm_chain(p: list[int]) -> list[list[int]]:
    """p, p', then negated remainders; the last element is gcd(p, p').

    Over the integers: each remainder is a pseudo-remainder, negated and
    made primitive, so every element is a positive multiple of the chain
    built over ``Fraction`` and has the same signs everywhere.
    """
    chain = [p, poly_derivative(p)]
    while chain[-1]:
        chain.append(_primitive([-c for c in _pdivmod(chain[-2], chain[-1])[1]]))
    chain.pop()
    return chain


def _sign_changes(values: Sequence[int]) -> int:
    signs = [v > 0 for v in values if v != 0]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _scaled(f: Sequence[int], k: int, e: int) -> int:
    """f(k / 2^e) * 2^(e deg f): the sign of f at a dyadic point, in integers."""
    value = f[-1]
    for i, c in enumerate(reversed(f[:-1]), 1):
        value = value * k + (c << e * i)
    return value


def positive_roots(row: Sequence[Coeff]) -> list[float]:
    """The distinct real roots of row in (0, inf), ascending, each rounded
    to the nearest float.  Exact; a root past the largest float raises
    OverflowError.

    The chain is built on the square-free part p / gcd(p, p'), so by
    Sturm's theorem the sign changes at lo minus those at hi count the
    distinct roots in (lo, hi] for any lo < hi; a row whose coefficients
    never change sign has none, by Descartes' rule.  Bisection starts on
    (0, B], B the power of two above the Cauchy bound, so every point is
    a dyadic k / 2^e and is evaluated in integers.  A root on a midpoint is
    met exactly and taken as it is; an interval holding one root stops
    once both ends round to the same float.
    """
    p = [Fraction(c) for c in row]
    while p and p[-1] == 0:
        p.pop()
    if not _sign_changes(p):
        return []
    # a positive multiple with integer coefficients has the same roots
    scale = math.lcm(*(c.denominator for c in p))
    chain = _sturm_chain([int(c * scale) for c in p])
    if len(chain[-1]) > 1:
        chain = _sturm_chain(_primitive(_pdivmod(chain[0], chain[-1])[0]))
    q = chain[0]

    def changes(k: int, e: int) -> int:
        return _sign_changes([_scaled(f, k, e) for f in chain])

    bound = 1 << (2 + max(map(abs, q[:-1])) // abs(q[-1])).bit_length()
    roots, todo = [], [(0, changes(0, 0), bound, changes(bound, 0), 0)]
    while todo:
        lo, v_lo, hi, v_hi, e = todo.pop()
        if v_lo == v_hi:
            continue
        if v_lo - v_hi == 1 and (_scaled(q, hi, e) == 0 or lo / (1 << e) == hi / (1 << e)):
            roots.append(hi / (1 << e))
            continue
        mid = lo + hi
        v_mid = changes(mid, e + 1)
        todo += [(2 * lo, v_lo, mid, v_mid, e + 1), (mid, v_mid, 2 * hi, v_hi, e + 1)]
    return sorted(roots)


def positive_on_halfline(row: Sequence[Coeff]) -> bool:
    """Is row(t) > 0 for every t >= 0?  Exact: row(0) > 0 and no real
    root in (0, inf)."""
    return poly_eval(row, 0) > 0 and not positive_roots(row)


def _row_report(name: str, degree: int, row: Sequence[Coeff]) -> dict:
    """The exact verdict on one row, and its minimum where the paper states one."""
    entry: dict = {"poly": name, "m_power": degree, "positive": positive_on_halfline(row)}
    expected = EXPECTED_MINIMA.get((name, degree))
    if expected is not None:
        value, argmin = min(
            (poly_eval(row, Fraction(t)), t) for t in [0.0, *positive_roots(poly_derivative(row))]
        )
        entry.update(
            min_value=float(value), min_argmin=argmin, expected_min=expected[0],
            expected_argmin=expected[1],
            min_matches=abs(value - expected[0]) <= 1.0 and abs(argmin - expected[1]) <= 0.05,
        )
    return entry


def certify_logconcavity_polynomials() -> dict:
    """Expand E = A^2 - B^2 C exactly and certify all coefficient rows.

    Raises CertificationError naming the first mismatching coefficient;
    otherwise returns a JSON-ready report with the per-row positivity table.
    """
    e_rows = poly_sub(poly_mul(POLY_A, POLY_A), poly_mul(poly_mul(POLY_B, POLY_B), POLY_C))
    if len(e_rows) != len(EXPECTED_E_ROWS):
        raise CertificationError(
            f"E has degree {len(e_rows) - 1} in m, expected {len(EXPECTED_E_ROWS) - 1}"
        )
    for degree, (got, expected) in enumerate(zip(e_rows, EXPECTED_E_ROWS)):
        if got != list(expected):
            raise CertificationError(
                f"coefficient of m^{degree} in E is {got}, expected {list(expected)}"
            )

    report: dict = {"identity": "E = A^2 - B^2*C", "rows": []}
    for name, rows in (("A", POLY_A), ("E", EXPECTED_E_ROWS)):
        for degree in reversed(range(len(rows))):
            report["rows"].append(_row_report(name, degree, rows[degree]))
    report["all_positive"] = all(r["positive"] for r in report["rows"])
    report["minima_match"] = all(r.get("min_matches", True) for r in report["rows"])
    return report
