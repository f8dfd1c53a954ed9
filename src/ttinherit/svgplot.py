"""Standalone SVG 1.1 boxplot rendering, no plotting dependency.

One figure = one generator: a box per parameter (median line, IQR box,
whiskers at the most extreme points within 1.5 IQR, "+" markers for
outliers, dashed line for the mean).  Every box group carries the exact
summary numbers as ``data-*`` attributes so tests (and curious readers) can
parse the figure back without rasterizing it.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = ["write_boxplot_svg", "render_boxplot_svg"]

_SUBSCRIPT = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")
# XML escapes for text content and for a double-quoted attribute value
_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})
_ATTR = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"})


def _pretty(label: str) -> str:
    """alpha_1_2 -> small alpha with subscripts; anything else passes through."""
    parts = label.split("_")
    greek = {"alpha": "α", "beta": "β"}
    if parts[0] in greek and all(p.isdigit() for p in parts[1:]) and len(parts) > 1:
        return greek[parts[0]] + ",".join(p.translate(_SUBSCRIPT) for p in parts[1:])
    return label


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def render_boxplot_svg(title: str, summaries) -> str:
    """Render summaries (list of BoxplotSummary) to an SVG document string.

    A summary whose values were all excluded (``empty``) gets no box.
    """
    summaries = [s for s in summaries if not s.empty]
    if len(summaries) == 0:
        raise DomainError("nothing to plot")
    lo = min(min((s.whisker_low, *s.outliers)) for s in summaries)
    hi = max(max((s.whisker_high, *s.outliers)) for s in summaries)
    if hi == lo:
        pad = max(abs(hi) * 0.1, 0.5)
    else:
        pad = (hi - lo) * 0.06
    vmin, vmax = lo - pad, hi + pad

    m_left, m_right, m_top, m_bottom = 64.0, 18.0, 46.0, 52.0
    slot = 64.0
    plot_h = 400.0
    width = m_left + slot * len(summaries) + m_right
    height = m_top + plot_h + m_bottom

    def y(v: float) -> float:
        return m_top + (vmax - v) / (vmax - vmin) * plot_h

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">'
    )
    out.append(f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>')
    out.append(
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title.translate(_TEXT)}</text>'
    )

    # y grid and tick labels
    for tick in np.linspace(vmin, vmax, 6):
        ty = y(float(tick))
        out.append(
            f'<line x1="{m_left:.1f}" y1="{ty:.2f}" x2="{width - m_right:.1f}" '
            f'y2="{ty:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{m_left - 6:.1f}" y="{ty + 3.5:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10" fill="#444444">{tick:.4g}</text>'
        )
    out.append(
        f'<line x1="{m_left:.1f}" y1="{m_top:.1f}" x2="{m_left:.1f}" '
        f'y2="{m_top + plot_h:.1f}" stroke="#333333" stroke-width="1"/>'
    )

    box_w = 30.0
    for idx, s in enumerate(summaries):
        cx = m_left + slot * (idx + 0.5)
        x0, x1 = cx - box_w / 2, cx + box_w / 2
        y_q1, y_q3 = y(s.q1), y(s.q3)
        y_med, y_mean = y(s.median), y(s.mean)
        y_wlo, y_whi = y(s.whisker_low), y(s.whisker_high)
        data = (
            f'data-label="{s.label.translate(_ATTR)}" '
            f'data-median="{_fmt17(s.median)}" data-q1="{_fmt17(s.q1)}" '
            f'data-q3="{_fmt17(s.q3)}" data-whisker-low="{_fmt17(s.whisker_low)}" '
            f'data-whisker-high="{_fmt17(s.whisker_high)}" data-mean="{_fmt17(s.mean)}" '
            f'data-outliers="{";".join(_fmt17(v) for v in s.outliers)}"'
        )
        out.append(f'<g class="box-group" {data}>')
        # whisker stems and caps
        out.append(
            f'<line x1="{cx:.2f}" y1="{y_whi:.2f}" x2="{cx:.2f}" y2="{y_q3:.2f}" '
            f'stroke="#333333" stroke-width="1"/>'
        )
        out.append(
            f'<line x1="{cx:.2f}" y1="{y_q1:.2f}" x2="{cx:.2f}" y2="{y_wlo:.2f}" '
            f'stroke="#333333" stroke-width="1"/>'
        )
        for wy in (y_whi, y_wlo):
            out.append(
                f'<line x1="{cx - box_w / 4:.2f}" y1="{wy:.2f}" '
                f'x2="{cx + box_w / 4:.2f}" y2="{wy:.2f}" stroke="#333333" stroke-width="1"/>'
            )
        # IQR box (y_q3 is the top edge: larger value, smaller pixel y)
        out.append(
            f'<rect x="{x0:.2f}" y="{y_q3:.2f}" width="{box_w:.2f}" '
            f'height="{max(y_q1 - y_q3, 0.0):.2f}" fill="none" stroke="#0b5fa5" '
            f'stroke-width="1.4"/>'
        )
        out.append(
            f'<line class="median" x1="{x0:.2f}" y1="{y_med:.2f}" x2="{x1:.2f}" '
            f'y2="{y_med:.2f}" stroke="#d62728" stroke-width="1.6"/>'
        )
        out.append(
            f'<line class="mean" x1="{x0:.2f}" y1="{y_mean:.2f}" x2="{x1:.2f}" '
            f'y2="{y_mean:.2f}" stroke="#1f6feb" stroke-width="1.4" '
            f'stroke-dasharray="5,3"/>'
        )
        for v in s.outliers:
            oy = y(v)
            out.append(
                f'<path class="outlier" d="M {cx - 3.5:.2f} {oy:.2f} H {cx + 3.5:.2f} '
                f'M {cx:.2f} {oy - 3.5:.2f} V {oy + 3.5:.2f}" stroke="#d62728" '
                f'stroke-width="1.2" fill="none"/>'
            )
        out.append(
            f'<text x="{cx:.2f}" y="{m_top + plot_h + 20:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{_pretty(s.label).translate(_TEXT)}</text>'
        )
        out.append("</g>")

    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_boxplot_svg(path, title: str, summaries) -> str:
    """Render and write; returns the path."""
    doc = render_boxplot_svg(title, summaries)
    with open(path, "w", encoding="utf-8") as f:
        f.write(doc)
    return path
