"""Row-template emitters against the renderers they replaced.

The oracles below are the previous emitters, kept as the reference: the
whole report through ``json.dumps(indent=2, sort_keys=True)``, the CSV
through ``format(x, ".17g")`` f-strings, and the SVG through per-point
``px``/``py`` closures.  The new emitters return their files as lists of
row blocks; joined, they must write the same bytes.
"""

import json
import math
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from posterior_dynamics import diagnostics as dg
from posterior_dynamics import families as fam
from posterior_dynamics import figures
from posterior_dynamics import priors as pr
from posterior_dynamics.engine import ExpectedPosteriorSequence
from posterior_dynamics.scenario import Scenario, scenario_to_json
from posterior_dynamics.util import CANONICAL_RATIONAL_BITS, ExactValue


def oracle_json(scenario, seq, report) -> str:
    rationals = seq.rational_strings()
    obj = {
        "schema": 1,
        "scenario": scenario_to_json(scenario),
        "method": seq.method,
        "repr": seq.representation,
        "diagnostics": report.to_json_dict(),
        "values": [
            {
                "n": n,
                "psi": float(v),
                "log_psi": lv,
                **({"psi_rational": rat} if rat is not None else {}),
            }
            for n, v, lv, rat in zip(seq.ns(), seq.values, seq.log_values, rationals)
        ],
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def oracle_csv(seq, report) -> str:
    modes = set(report.modes)
    violations = set(report.logconcavity_violations)
    lines = ["n,psi,log_psi,is_mode,lc_violation"]
    for n, v, lv in zip(seq.ns(), seq.values, seq.log_values):
        lines.append(
            f"{n},{format(float(v), '.17g')},{format(lv, '.17g')},"
            f"{int(n in modes)},{int(n in violations)}"
        )
    return "\n".join(lines) + "\n"


def oracle_polyline(xs, ys, marks) -> str:
    width, height = 720, 480
    pad_l, pad_r, pad_t, pad_b = 72, 24, 24, 48
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    span_x = x_hi - x_lo if x_hi > x_lo else 1.0
    span_y = y_hi - y_lo

    def px(x):
        return pad_l + (x - x_lo) / span_x * (width - pad_l - pad_r)

    def py(y):
        return height - pad_b - (y - y_lo) / span_y * (height - pad_t - pad_b)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad_l}" y1="{height - pad_b}" x2="{width - pad_r}" '
        f'y2="{height - pad_b}" stroke="black"/>',
        f'<line x1="{pad_l}" y1="{pad_t}" x2="{pad_l}" y2="{height - pad_b}" stroke="black"/>',
    ]
    for t in figures._ticks(x_lo, x_hi):
        x = px(t)
        parts.append(
            f'<line x1="{x:.2f}" y1="{height - pad_b}" x2="{x:.2f}" '
            f'y2="{height - pad_b + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{height - pad_b + 18}" font-size="11" '
            f'text-anchor="middle">{t:g}</text>'
        )
    for t in figures._ticks(y_lo, y_hi):
        y = py(t)
        parts.append(f'<line x1="{pad_l - 5}" y1="{y:.2f}" x2="{pad_l}" y2="{y:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{pad_l - 8}" y="{y + 4:.2f}" font-size="11" text-anchor="end">{t:.3g}</text>'
        )
    points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    parts.append(f'<polyline points="{points}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>')
    for mx, my, label in marks:
        parts.append(f'<circle cx="{px(mx):.2f}" cy="{py(my):.2f}" r="3.5" fill="#d62728"/>')
        parts.append(
            f'<text x="{px(mx):.2f}" y="{py(my) - 8:.2f}" font-size="11" '
            f'text-anchor="middle">{label}</text>'
        )
    parts.append(
        f'<text x="{(pad_l + width - pad_r) // 2}" y="{height - 10}" font-size="12" '
        f'text-anchor="middle">n</text>'
    )
    parts.append(
        f'<text x="16" y="{(pad_t + height - pad_b) // 2}" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 16 {(pad_t + height - pad_b) // 2})">'
        "psi(n)</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


SCENARIO = Scenario(
    family=fam.bernoulli(), prior=pr.Uniform01(), theta0=F(1, 2), theta1=F(3, 4), horizon=3,
    name="emit",
)
LIMIT = 1 << CANONICAL_RATIONAL_BITS


def _exact(*values) -> ExpectedPosteriorSequence:
    return ExpectedPosteriorSequence(fam.bernoulli(), F(1, 2), F(3, 4), "exact_rational",
                                     values=list(values))


def _float(*log_values) -> ExpectedPosteriorSequence:
    return ExpectedPosteriorSequence(fam.bernoulli(), F(1, 2), F(3, 4), "closed_form",
                                     log_values=list(log_values))


SEQUENCES = {
    # a zero value (psi 0.0, log_psi -inf) and rationals on both sides of
    # the canonical size cap
    "exact_zero_and_cap": _exact(
        ExactValue(0, 7), ExactValue(1, 3), ExactValue(1, LIMIT // 2),
        ExactValue(1, LIMIT), ExactValue(3 * LIMIT + 1, 5 * LIMIT),
    ),
    # a subnormal psi, and one that rounds to 0.0 with a finite log
    "exact_subnormal": _exact(ExactValue(1, 1 << 1074), ExactValue(3, 1 << 1060),
                              ExactValue(1, 1 << 1100)),
    "float_zero_subnormal": _float(float("-inf"), -745.0, -720.5, 0.0),
    "float_flat_horizon_3": _float(math.log(0.5), math.log(0.5), math.log(0.5)),
    "float_horizon_3": _float(-1.0, -0.25, -3.0),
}
REPORTS = {
    "none": dg.DiagnosticsReport([], [], [], None),
    "marked": dg.DiagnosticsReport(
        modes=[1, 3], minima=[1, 2], logconcavity_violations=[2], eventual_decrease=3,
        log_convex_prefix_end=1.5, critical_points=[(2.4, "max"), (0.2, "min")],
        asymptotic_ratios=[(1, 0.5), (3, float("inf"))],
    ),
}
CASES = [(s, r) for s in SEQUENCES for r in REPORTS]


def oracle_svg(seq, report) -> str:
    xs = [float(n) for n in seq.ns()]
    ys = seq.float_values()
    marks = [(float(m), ys[m - 1], f"n={m}") for m in report.modes]
    marks += [(float(m), ys[m - 1], f"n={m}") for m in report.minima if m > 1]
    for n_star, kind in report.critical_points:
        idx = min(max(int(round(n_star)), 1), len(ys))
        marks.append((float(idx), ys[idx - 1], f"{kind}~{n_star:.0f}"))
    return oracle_polyline(xs, ys, marks)


def assert_emitters_match_oracles(seq, report):
    assert "".join(figures.sequence_json(SCENARIO, seq, report)) == oracle_json(
        SCENARIO, seq, report)
    assert "".join(figures.sequence_csv(seq, report)) == oracle_csv(seq, report)
    assert "".join(figures.sequence_svg(seq, report)) == oracle_svg(seq, report)


@pytest.mark.parametrize("seq_name,report_name", CASES)
def test_json_matches_indented_json_dumps(seq_name, report_name):
    seq, report = SEQUENCES[seq_name], REPORTS[report_name]
    assert "".join(figures.sequence_json(SCENARIO, seq, report)) == oracle_json(
        SCENARIO, seq, report)


@pytest.mark.parametrize("seq_name,report_name", CASES)
def test_csv_matches_format_rows(seq_name, report_name):
    seq, report = SEQUENCES[seq_name], REPORTS[report_name]
    assert "".join(figures.sequence_csv(seq, report)) == oracle_csv(seq, report)


@pytest.mark.parametrize("seq_name,report_name", CASES)
def test_svg_matches_closure_polyline(seq_name, report_name):
    seq, report = SEQUENCES[seq_name], REPORTS[report_name]
    assert "".join(figures.sequence_svg(seq, report)) == oracle_svg(seq, report)


B, S = figures.BLOCK_ROWS, figures.SUB_ROWS
EDGE_HORIZONS = [1, S - 1, S, S + 1, 2 * S + 1, B - 1, B, B + 1, 2 * B + 1]
# the last row of a sub-block and of a block, the first of the next, and
# the last row overall
EDGES = (S, S + 1, 2 * S + 1, B, B + 1, 2 * B + 1)


def _exact_rows(horizon) -> ExpectedPosteriorSequence:
    """psi_rational strings on every row but these: a zero (psi 0.0, log
    -inf) and a value past the canonical size cap at block edges, and a
    whole sub-block of values past the cap (no rational in it)."""
    past_cap = ExactValue(3 * LIMIT + 1, 5 * LIMIT)
    special = {B: ExactValue(0, 7), B + 1: past_cap}
    special.update((n, past_cap) for n in range(2 * S + 1, 3 * S + 1))
    return _exact(*[special.get(n, ExactValue(n, n + 1)) for n in range(1, horizon + 1)])


def _float_rows(horizon) -> ExpectedPosteriorSequence:
    """Non-finite and underflowing values on the edge rows, and one NaN and
    one -inf row inside otherwise finite sub-blocks."""
    special = {S // 2: float("nan"), S + S // 2: float("-inf"),
               B - 1: -800.0, B: float("-inf"), 2 * B + 1: float("-inf")}
    return _float(*[special.get(n, -n / 1000.0) for n in range(1, horizon + 1)])


def _edge_report(horizon) -> dg.DiagnosticsReport:
    def on(ns):
        return [n for n in ns if n <= horizon]
    return dg.DiagnosticsReport(
        modes=on([1, S, S + 1, B, B + 1]), minima=on([S - 1, B - 1, 2 * B + 1]),
        logconcavity_violations=on([B - 1, *EDGES]), eventual_decrease=None,
        critical_points=[(float(horizon), "max")],
    )


@pytest.mark.parametrize("rows", [_exact_rows, _float_rows])
@pytest.mark.parametrize("horizon", EDGE_HORIZONS)
def test_block_edges_match_oracles(rows, horizon):
    seq, report = rows(horizon), _edge_report(horizon)
    parts = figures.sequence_json(SCENARIO, seq, report)
    assert all(isinstance(p, str) for p in parts)
    assert len(parts) <= 2 + 2 * math.ceil(horizon / B)
    assert_emitters_match_oracles(seq, report)


PEAK_SEQ = _float(*[-n / 1e4 for n in range(1, 50_001)])


def _peak_and_text(emit) -> tuple[int, int]:
    """The tracemalloc peak of one ``emit(seq, report)`` call on 50,000
    float rows, and the length of the text it returns."""
    report = REPORTS["none"]
    emit(PEAK_SEQ, report)  # warm any lazy state
    tracemalloc.start()
    try:
        parts = emit(PEAK_SEQ, report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, sum(map(len, parts))


def test_json_peak_memory_is_near_its_text():
    """The blocks, not a list of 50,000 row strings plus their join, set
    the peak: 1.03x the 4.5 MB text here, against 3.6x when the rows were
    held whole, so a bound of 1.5x fails the whole-file form."""
    peak, text = _peak_and_text(lambda seq, report: figures.sequence_json(SCENARIO, seq, report))
    assert text > 4_000_000
    assert peak < 1.5 * text


@pytest.mark.parametrize("emit", [figures.sequence_csv, figures.sequence_svg],
                         ids=["csv", "svg"])
def test_csv_and_svg_peak_memory_is_near_their_text(emit):
    """The same bound for the CSV (2.4 MB, 1.07x) and the SVG (0.7 MB,
    1.04x; 1.35x while it held a list of 50,000 x floats)."""
    peak, text = _peak_and_text(emit)
    assert text > 500_000
    assert peak < 1.5 * text


def test_cases_cover_the_edge_values():
    rows = [row for seq in SEQUENCES.values()
            for row in zip(seq.float_values(), seq.log_values, seq.rational_strings())]
    assert any(lv == float("-inf") for _, lv, _ in rows)
    assert any(psi == 0.0 and math.isfinite(lv) for psi, lv, _ in rows)
    assert any(0.0 < psi < 2.2250738585072014e-308 for psi, _, _ in rows)
    exact = SEQUENCES["exact_zero_and_cap"].rational_strings()
    assert exact[2] is not None and exact[3] is None


@given(
    st.lists(st.floats(), min_size=3, max_size=40),
    st.lists(st.floats(), min_size=3, max_size=40),
)
def test_any_float_rows_match_oracles(psis, logs):
    """Every float, non-finite ones included, is written as json.dumps and
    format(x, ".17g") write it."""
    seq = _float(*[0.0] * len(psis))
    seq.values, seq.log_values = psis, (logs * len(psis))[: len(psis)]
    report = REPORTS["marked"]
    assert "".join(figures.sequence_json(SCENARIO, seq, report)) == oracle_json(
        SCENARIO, seq, report)
    assert "".join(figures.sequence_csv(seq, report)) == oracle_csv(seq, report)


@given(st.lists(st.floats(0.0, 1.0).map(lambda v: round(v, 6)), min_size=3, max_size=60),
       st.data())
def test_any_polyline_matches_oracle(ys, data):
    xs = [float(n) for n in range(1, len(ys) + 1)]
    idx = data.draw(st.lists(st.integers(0, len(ys) - 1), max_size=4))
    marks = [(xs[i], ys[i], f"n={i + 1}") for i in idx]
    assert "".join(figures.polyline_svg(xs, ys, marks)) == oracle_polyline(xs, ys, marks)


def test_failed_write_leaves_neither_file(tmp_path):
    """A part that is not a str fails the write after the temp file is open:
    the error propagates and neither the temp file nor the target exists."""
    path = tmp_path / "out.csv"
    with pytest.raises(TypeError):
        figures.atomic_write(str(path), ["n,psi\n", 5])
    assert list(tmp_path.iterdir()) == []
