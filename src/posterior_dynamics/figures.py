"""File emission for scenario runs: CSV, JSON report, hand-rolled SVG.

CSV is the primary artifact (columns n, psi, log_psi, is_mode,
lc_violation); the SVG is a plain polyline with axis ticks and extremum
markers, emitted without any plotting dependency.  All writes are
atomic (write to a temp name, then rename) and byte-deterministic: CSV
floats carry 17 significant digits, JSON floats are written as json
writes them, rationals as canonical "p/q" up to a size cap.

The per-n rows of all three files come from one writer, ``_rows``: a row
template and one column per field.  It returns the rows joined into
blocks of at most ``BLOCK_ROWS`` rows, so a long sequence is never held
as one list of per-row strings next to its joined text.  Inside a block,
each sub-block of at most ``SUB_ROWS`` rows is formatted by one ``%``
call: the row template repeated once per row, applied to one tuple of
the rows' interleaved fields, so the per-row cost is the C formatting
alone.  Sub-blocks stay small because one ``%`` over a whole 2,048-row
block, though faster still, raised the peak RSS of a 50,000-row run (35
to 40-43 MB): its output buffer grows and reallocates as it fills.  The
blocks stay too: returning the 64-row strings themselves, one list item
each, raised the long-horizon benchmark's peak RSS from 34.9 to 35.6 MB.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from functools import partial
from importlib import resources
from typing import Sequence

from . import diagnostics as dg
from .engine import REPR_RATIONAL, ExpectedPosteriorSequence
from .scenario import Scenario, run_scenario, scenario_from_json, scenario_to_json

BUNDLED = ("figure1", "figure2", "figure3", "beta71")
# rows per joined block of an emitted file: small next to a 50,000-row
# file, large enough that the list of blocks stays short
BLOCK_ROWS = 2048
# rows per % call inside a block (see the module docstring)
SUB_ROWS = 64


def bundled_scenario(name: str) -> Scenario:
    if name not in BUNDLED:
        raise ValueError(f"unknown bundled scenario {name!r}; have {BUNDLED}")
    text = resources.files("posterior_dynamics.scenarios").joinpath(f"{name}.json").read_text()
    return scenario_from_json(json.loads(text), name=name)


def atomic_write(path: str, parts: list[str]) -> None:
    """Write the concatenation of ``parts`` (a list, never a bare str) to
    ``path`` through a temp name and a rename; the temp file does not
    outlive a failed write or rename."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _rows(row: str, sep: str, count: int, columns) -> list[str]:
    """``sep.join`` of rows 0..count-1 of the ``%`` template ``row``, as a
    list of blocks of at most ``BLOCK_ROWS`` rows.  Each column gives one
    field per row: a sequence, sliced ``[lo:hi]``, or a function ``(lo,
    hi) -> list``.  Each sub-block of at most ``SUB_ROWS`` rows is one
    ``%`` call on the template repeated once per row."""
    width, whole = len(columns), sep.join([row] * SUB_ROWS)
    parts = []
    for lo in range(0, count, BLOCK_ROWS):
        if lo:
            parts.append(sep)
        hi, subs = min(lo + BLOCK_ROWS, count), []
        for a in range(lo, hi, SUB_ROWS):
            b = min(a + SUB_ROWS, hi)
            fields = [0] * (width * (b - a))
            for i, column in enumerate(columns):
                fields[i::width] = column(a, b) if callable(column) else column[a:b]
            subs.append((whole if b - a == SUB_ROWS else sep.join([row] * (b - a))) % tuple(fields))
        parts.append(sep.join(subs))
    return parts


def _flags(marks, count: int) -> bytearray:
    """1 at index n - 1 for each mark n in 1..count, else 0."""
    flags = bytearray(count)
    for n in marks:
        if 1 <= n <= count:
            flags[n - 1] = 1
    return flags


def sequence_csv(seq: ExpectedPosteriorSequence, report: dg.DiagnosticsReport) -> list[str]:
    values, logs = seq.float_values(), seq.log_values
    modes = _flags(report.modes, len(values))
    violations = _flags(report.logconcavity_violations, len(values))
    rows = _rows("%d,%.17g,%.17g,%d,%d\n", "", len(values),
                 [range(1, len(values) + 1), values, logs, modes, violations])
    return ["n,psi,log_psi,is_mode,lc_violation\n", *rows]


def sequence_report(
    scenario: Scenario, seq: ExpectedPosteriorSequence, report: dg.DiagnosticsReport
) -> dict:
    """The JSON report without its per-n rows, which ``sequence_json`` adds."""
    return {
        "schema": 1,
        "scenario": scenario_to_json(scenario),
        "method": seq.method,
        "repr": seq.representation,
        "diagnostics": report.to_json_dict(),
    }


def render_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def sequence_json(
    scenario: Scenario, seq: ExpectedPosteriorSequence, report: dg.DiagnosticsReport
) -> list[str]:
    """The bytes of ``render_json`` on the report with a sorted-last "values"
    list of {"log_psi", "n", "psi"[, "psi_rational"]} rows, written from one
    row template instead of through json's pure-Python indent encoder: each
    float as json writes it (``%s`` of a finite float is its repr, and
    ``json.dumps`` writes the others), and the psi_rational member, or
    nothing, as the last field."""
    head = render_json(sequence_report(scenario, seq, report))
    values, logs = seq.float_values(), seq.log_values
    rationals = seq.rational_strings() if seq.representation == REPR_RATIONAL else None
    isfinite = math.isfinite

    def floats(column: list[float], lo: int, hi: int) -> list:
        part = column[lo:hi]
        if isfinite(sum(part)):  # so is every value, and %s writes its repr
            return part
        return [x if isfinite(x) else json.dumps(x) for x in part]

    def psi_rational(lo: int, hi: int) -> list[str]:
        if rationals is None:
            return [""] * (hi - lo)
        return [f',\n      "psi_rational": "{r}"' if r else "" for r in rationals[lo:hi]]

    row = '    {\n      "log_psi": %s,\n      "n": %d,\n      "psi": %s%s\n    }'
    columns = [partial(floats, logs), range(1, len(values) + 1), partial(floats, values),
               psi_rational]
    return [
        head[: -len("\n}\n")] + ',\n  "values": [\n',
        *_rows(row, ",\n", len(values), columns),
        "\n  ]\n}\n",
    ]


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------


def _ticks(lo: float, hi: float) -> list[float]:
    """About six round tick values covering [lo, hi]."""
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / 5
    mag = 10 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * step:
        out.append(round(t, 12))
        t += step
    return out or [lo]


def polyline_svg(
    xs: Sequence[float], ys: list[float], marks: list[tuple[float, float, str]]
) -> list[str]:
    """Minimal plot of psi(n) against n: one polyline, tick marks, labelled
    points; the polyline's points are formatted in blocks of rows.  xs may
    be a range of ints, which plot as the equal floats would."""
    width, height = 720, 480
    pad_l, pad_r, pad_t, pad_b = 72, 24, 24, 48
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    span_x = x_hi - x_lo if x_hi > x_lo else 1.0
    span_y = y_hi - y_lo
    plot_w, base_y, plot_h = width - pad_l - pad_r, height - pad_b, height - pad_t - pad_b

    def px(values: list[float]) -> list[float]:
        return [pad_l + (x - x_lo) / span_x * plot_w for x in values]

    def py(values: list[float]) -> list[float]:
        return [base_y - (y - y_lo) / span_y * plot_h for y in values]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad_l}" y1="{height - pad_b}" x2="{width - pad_r}" '
        f'y2="{height - pad_b}" stroke="black"/>',
        f'<line x1="{pad_l}" y1="{pad_t}" x2="{pad_l}" y2="{height - pad_b}" stroke="black"/>',
    ]
    x_ticks, y_ticks = _ticks(x_lo, x_hi), _ticks(y_lo, y_hi)
    for t, x in zip(x_ticks, px(x_ticks)):
        parts.append(
            f'<line x1="{x:.2f}" y1="{height - pad_b}" x2="{x:.2f}" '
            f'y2="{height - pad_b + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{height - pad_b + 18}" font-size="11" '
            f'text-anchor="middle">{t:g}</text>'
        )
    for t, y in zip(y_ticks, py(y_ticks)):
        parts.append(f'<line x1="{pad_l - 5}" y1="{y:.2f}" x2="{pad_l}" y2="{y:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{pad_l - 8}" y="{y + 4:.2f}" font-size="11" text-anchor="end">{t:.3g}</text>'
        )
    head = "\n".join(parts) + '\n<polyline points="'

    blocks = _rows("%.2f,%.2f", " ", len(xs),
                   [lambda lo, hi: px(xs[lo:hi]), lambda lo, hi: py(ys[lo:hi])])
    parts = ['" fill="none" stroke="#1f77b4" stroke-width="1.5"/>']
    mark_xs = px([mx for mx, _, _ in marks])
    mark_ys = py([my for _, my, _ in marks])
    for (_, _, label), x, y in zip(marks, mark_xs, mark_ys):
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3.5" fill="#d62728"/>')
        parts.append(
            f'<text x="{x:.2f}" y="{y - 8:.2f}" font-size="11" '
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
    return [head, *blocks, "\n".join(parts) + "\n"]


def sequence_svg(seq: ExpectedPosteriorSequence, report: dg.DiagnosticsReport) -> list[str]:
    ys = seq.float_values()
    extrema = [*report.modes, *(m for m in report.minima if m > 1)]
    marks = [(float(m), ys[m - 1], f"n={m}") for m in extrema]
    for n_star, kind in report.critical_points:
        idx = min(max(int(round(n_star)), 1), len(ys))
        marks.append((float(idx), ys[idx - 1], f"{kind}~{n_star:.0f}"))
    return polyline_svg(seq.ns(), ys, marks)


def emit_scenario_files(scenario: Scenario, outdir: str) -> list[str]:
    """Run one scenario and write its requested outputs; returns paths."""
    seq = run_scenario(scenario)
    report = dg.analyze(seq, prior=scenario.prior)
    os.makedirs(outdir, exist_ok=True)
    written = []
    base = os.path.join(outdir, scenario.name)
    for kind, emit in (("csv", sequence_csv), ("json", partial(sequence_json, scenario)),
                       ("svg", sequence_svg)):
        if kind in scenario.outputs:
            atomic_write(f"{base}.{kind}", emit(seq, report))
            written.append(f"{base}.{kind}")
    return written
