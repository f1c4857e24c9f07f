"""Machine-readable analysis reports and static SVG figures.

The JSON report is the machine-readable analogue of an estimator
comparison figure: one entry per (graph label, estimator, method) with
point estimate and CI bounds. SVGs are assembled as plain strings so a
given report always renders to identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

SCHEMA_VERSION = "2"

ESTIMATOR_DISPLAY = {
    "erl": "ERL",
    "reg": "Reg",
    "reg_pre": "RegPre",
    "crerl": "CR-ERL",
}
METHOD_DISPLAY = {
    "bootstrap": "B",
    "randomization": "K",
    "pairwise": "V",
}


@dataclass
class ReportEntry:
    graph_label: str
    estimator: str
    method: str
    status: str = "ok"  # or "error"
    error: str | None = None
    tau_hat: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    level: float | None = None
    replications: int | None = None
    seed: int | None = None
    n_units: int | None = None
    lam: float | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        est = ESTIMATOR_DISPLAY.get(self.estimator, self.estimator)
        meth = METHOD_DISPLAY.get(self.method, self.method)
        return f"{self.graph_label}: {est}+{meth}"


@dataclass
class EstimateReport:
    config: dict
    entries: list[ReportEntry] = field(default_factory=list)
    graph_stats: dict = field(default_factory=dict)
    degenerate_units: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config,
            "graph_stats": self.graph_stats,
            "degenerate_units": self.degenerate_units,
            "entries": [
                {
                    "graph": e.graph_label,
                    "estimator": e.estimator,
                    "method": e.method,
                    "status": e.status,
                    "error": e.error,
                    "tau_hat": e.tau_hat,
                    "ci_low": e.ci_low,
                    "ci_high": e.ci_high,
                    "level": e.level,
                    "replications": e.replications,
                    "seed": e.seed,
                    "n_units": e.n_units,
                    "lambda": e.lam,
                    "diagnostics": e.diagnostics,
                }
                for e in self.entries
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def forest_plot_svg(report: EstimateReport, title: str = "Estimator comparison") -> str:
    """One row per report entry: point marker plus CI whisker, grouped by
    graph label. Failed entries render as a text-only row."""
    entries = report.entries
    row_h = 28
    top, bottom, left, right = 50, 30, 230, 30
    plot_w = 460
    width = left + plot_w + right
    height = top + row_h * max(len(entries), 1) + bottom

    ok = [e for e in entries if e.status == "ok"]
    if ok:
        los = [e.ci_low for e in ok] + [0.0]
        his = [e.ci_high for e in ok] + [0.0]
        lo, hi = min(los), max(his)
        span = (hi - lo) or 1.0
        lo -= 0.05 * span
        hi += 0.05 * span
    else:
        lo, hi = -1.0, 1.0

    def x_of(v):
        return left + (v - lo) / (hi - lo) * plot_w

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="monospace" font-size="12">',
        f'<text x="{left}" y="24" font-size="14">{title}</text>',
        f'<line x1="{_fmt(x_of(0.0))}" y1="{top - 8}" x2="{_fmt(x_of(0.0))}" '
        f'y2="{height - bottom + 8}" stroke="#999" stroke-dasharray="4,3"/>',
    ]
    for i, e in enumerate(entries):
        y = top + row_h * i + row_h // 2
        parts.append(f'<g class="row">')
        parts.append(f'<text x="8" y="{y + 4}">{e.label}</text>')
        if e.status == "ok":
            x0, x1, xm = x_of(e.ci_low), x_of(e.ci_high), x_of(e.tau_hat)
            parts.append(
                f'<line x1="{_fmt(x0)}" y1="{y}" x2="{_fmt(x1)}" y2="{y}" '
                f'stroke="#1f4e79" stroke-width="2"/>'
            )
            parts.append(
                f'<circle cx="{_fmt(xm)}" cy="{y}" r="4" fill="#1f4e79"/>'
            )
            parts.append(
                f'<text x="{left + plot_w + 6}" y="{y + 4}" font-size="10">'
                f"{_fmt(e.tau_hat)}</text>"
            )
        else:
            parts.append(
                f'<text x="{left}" y="{y + 4}" fill="#a33">error: {e.error}</text>'
            )
        parts.append("</g>")
    parts.append(f'<text x="{left}" y="{height - 8}" font-size="10">{_fmt(lo)}</text>')
    parts.append(
        f'<text x="{left + plot_w - 40}" y="{height - 8}" font-size="10">{_fmt(hi)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def histogram_svg(
    counts: np.ndarray, edges: np.ndarray, title: str = "Exposure distribution"
) -> str:
    """Bar chart of the exposure histogram (50 bins over [0,1] by default)."""
    counts = np.asarray(counts)
    top, bottom, left, right = 40, 30, 50, 20
    plot_w, plot_h = 500, 200
    width = left + plot_w + right
    height = top + plot_h + bottom
    peak = max(int(counts.max()), 1)
    nbins = len(counts)
    bar_w = plot_w / nbins
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="monospace" font-size="12">',
        f'<text x="{left}" y="24" font-size="14">{title}</text>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="#333"/>',
    ]
    for i, c in enumerate(counts):
        if c == 0:
            continue
        h = plot_h * int(c) / peak
        x = left + i * bar_w
        parts.append(
            f'<rect class="bin" x="{_fmt(x)}" y="{_fmt(top + plot_h - h)}" '
            f'width="{_fmt(bar_w * 0.9)}" height="{_fmt(h)}" fill="#1f4e79"/>'
        )
    for frac, label in ((0.0, "0"), (0.5, "0.5"), (1.0, "1")):
        x = left + frac * plot_w
        parts.append(
            f'<text x="{_fmt(x)}" y="{top + plot_h + 16}" font-size="10">{label}</text>'
        )
    parts.append(
        f'<text x="8" y="{top + 8}" font-size="10">{peak}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
