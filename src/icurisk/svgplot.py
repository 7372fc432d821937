"""Minimal native SVG plots: ROC polyline, jittered-dot summaries, ALE
curves with a bin rug, and a histogram.

Output is deterministic: no timestamps, no randomness (jitter comes from a
low-discrepancy sequence), fixed float formatting.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = 0.6180339887498949
_HIST_BINS = 30


def _f(x: float) -> str:
    return format(float(x), ".6g")


def _esc(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


class _Canvas:
    """Accumulates SVG elements inside a margin-framed data viewport."""

    def __init__(self, width=520, height=420, margin=(50, 20, 40, 60)):
        self.w = width
        self.h = height
        self.top, self.right, self.bottom, self.left = margin
        self.parts = []

    @property
    def plot_w(self):
        return self.w - self.left - self.right

    @property
    def plot_h(self):
        return self.h - self.top - self.bottom

    def x(self, v, lo, hi):
        span = hi - lo if hi > lo else 1.0
        return self.left + (v - lo) / span * self.plot_w

    def y(self, v, lo, hi):
        span = hi - lo if hi > lo else 1.0
        return self.top + self.plot_h - (v - lo) / span * self.plot_h

    def add(self, element: str):
        self.parts.append(element)

    def frame(self):
        self.add(f'<rect x="{self.left}" y="{self.top}" width="{self.plot_w}" '
                 f'height="{self.plot_h}" fill="none" stroke="#333"/>')

    def title(self, text):
        self.add(f'<text x="{self.w / 2}" y="{self.top - 28}" text-anchor="middle" '
                 f'font-size="15" font-weight="bold">{_esc(text)}</text>')

    def xlabel(self, text):
        self.add(f'<text x="{self.left + self.plot_w / 2}" y="{self.h - 6}" '
                 f'text-anchor="middle" font-size="12">{_esc(text)}</text>')

    def ylabel(self, text):
        cx, cy = 14, self.top + self.plot_h / 2
        self.add(f'<text x="{cx}" y="{cy}" text-anchor="middle" font-size="12" '
                 f'transform="rotate(-90 {cx} {cy})">{_esc(text)}</text>')

    def xticks(self, values, lo, hi, fmt=".2g"):
        for v in values:
            px = self.x(v, lo, hi)
            yb = self.top + self.plot_h
            self.add(f'<line x1="{_f(px)}" y1="{yb}" x2="{_f(px)}" y2="{yb + 4}" stroke="#333"/>')
            self.add(f'<text x="{_f(px)}" y="{yb + 16}" text-anchor="middle" '
                     f'font-size="10">{format(v, fmt)}</text>')

    def yticks(self, values, lo, hi, fmt=".2g"):
        for v in values:
            py = self.y(v, lo, hi)
            self.add(f'<line x1="{self.left - 4}" y1="{_f(py)}" x2="{self.left}" y2="{_f(py)}" stroke="#333"/>')
            self.add(f'<text x="{self.left - 7}" y="{_f(py)}" text-anchor="end" '
                     f'dominant-baseline="middle" font-size="10">{format(v, fmt)}</text>')

    def render(self) -> str:
        body = "\n".join(self.parts)
        return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.w}" '
                f'height="{self.h}" viewBox="0 0 {self.w} {self.h}">\n'
                f'<rect width="{self.w}" height="{self.h}" fill="white"/>\n'
                f"{body}\n</svg>\n")


def _polyline(canvas, xs, ys, xlim, ylim, color="#1f6fb2", width=1.6):
    pts = " ".join(f"{_f(canvas.x(x, *xlim))},{_f(canvas.y(y, *ylim))}"
                   for x, y in zip(xs, ys))
    canvas.add(f'<polyline points="{pts}" fill="none" stroke="{color}" '
               f'stroke-width="{width}"/>')


def roc_svg(fpr, tpr, auroc_value: float, label: str = "") -> str:
    c = _Canvas(margin=(40, 20, 40, 60))
    c.title(f"ROC {label}".strip())
    c.frame()
    c.xlabel("false positive rate")
    c.ylabel("true positive rate")
    ticks = [0.0, 0.25, 0.5, 0.75, 1.0]
    c.xticks(ticks, 0, 1)
    c.yticks(ticks, 0, 1)
    c.add(f'<line x1="{c.x(0, 0, 1)}" y1="{c.y(0, 0, 1)}" x2="{c.x(1, 0, 1)}" '
          f'y2="{c.y(1, 0, 1)}" stroke="#999" stroke-dasharray="4 3"/>')
    _polyline(c, fpr, tpr, (0, 1), (0, 1))
    c.add(f'<text x="{c.x(0.62, 0, 1)}" y="{c.y(0.08, 0, 1)}" font-size="12">'
          f"AUROC = {auroc_value:.3f}</text>")
    return c.render()


def _jitter(i: int) -> float:
    """Deterministic low-discrepancy offset in (-0.5, 0.5)."""
    return (i * _GOLDEN) % 1.0 - 0.5


def dot_rows_svg(row_labels, row_values, title, xlabel,
                 marker_values=None, baseline=None) -> str:
    """One horizontal band of jittered dots per row; optional baseline line.
    With no rows, only the frame and the baseline are drawn."""
    rows = len(row_labels)
    height = max(160, 70 + 24 * rows)
    c = _Canvas(width=640, height=height, margin=(40, 25, 45, 170))
    c.title(title)
    all_vals = np.concatenate([np.asarray(v, dtype=float) for v in row_values]
                              + [[] if baseline is None else [baseline]])
    lo, hi = float(all_vals.min()), float(all_vals.max())
    pad = 0.05 * (hi - lo if hi > lo else 1.0)
    xlim = (lo - pad, hi + pad)
    c.frame()
    c.xlabel(xlabel)
    c.xticks(np.linspace(xlim[0], xlim[1], 5), *xlim, fmt=".3g")
    band = c.plot_h / max(rows, 1)
    if baseline is not None:
        bx = _f(c.x(baseline, *xlim))
        c.add(f'<line x1="{bx}" y1="{c.top}" x2="{bx}" y2="{c.top + c.plot_h}" '
              f'stroke="#c23b22" stroke-dasharray="5 3"/>')
    for r, (name, vals) in enumerate(zip(row_labels, row_values)):
        cy = c.top + band * (r + 0.5)
        c.add(f'<text x="{c.left - 6}" y="{_f(cy)}" text-anchor="end" '
              f'dominant-baseline="middle" font-size="10">{_esc(name)}</text>')
        marks = None if marker_values is None else np.asarray(marker_values[r], dtype=float)
        if marks is not None and marks.size:
            span = marks.max() - marks.min()
            shade = (marks - marks.min()) / (span if span > 0 else 1.0)
        for i, v in enumerate(np.asarray(vals, dtype=float)):
            py = cy + _jitter(i) * band * 0.7
            if marks is None:
                fill = "#1f6fb2"
            else:
                g = int(40 + 180 * (1.0 - shade[i]))
                fill = f"rgb({g},{g // 2 + 30},{255 - g})"
            c.add(f'<circle cx="{_f(c.x(v, *xlim))}" cy="{_f(py)}" r="2.4" '
                  f'fill="{fill}" fill-opacity="0.65"/>')
    return c.render()


def ale_svg(edges, centered, edge_counts, feature: str) -> str:
    c = _Canvas(margin=(40, 25, 50, 65))
    c.title(f"Accumulated local effects: {feature}")
    edges = np.asarray(edges, dtype=float)
    vals = np.asarray(centered, dtype=float)
    xlim = (float(edges.min()), float(edges.max()))
    vspan = vals.max() - vals.min()
    pad = 0.1 * (vspan if vspan > 0 else 1.0)
    ylim = (float(vals.min() - pad), float(vals.max() + pad))
    c.frame()
    c.xlabel(feature)
    c.ylabel("centered effect on risk")
    c.xticks(np.linspace(*xlim, 5), *xlim, fmt=".3g")
    c.yticks(np.linspace(*ylim, 5), *ylim, fmt=".2g")
    zero_y = c.y(0.0, *ylim)
    if ylim[0] < 0 < ylim[1]:
        c.add(f'<line x1="{c.left}" y1="{_f(zero_y)}" x2="{c.left + c.plot_w}" '
              f'y2="{_f(zero_y)}" stroke="#bbb" stroke-dasharray="3 3"/>')
    _polyline(c, edges, vals, xlim, ylim, color="#2a7f3f")
    counts = np.asarray(edge_counts, dtype=float)
    cmax = counts.max() if counts.size and counts.max() > 0 else 1.0
    for e, n in zip(edges, counts):
        if n <= 0:
            continue
        px = _f(c.x(e, *xlim))
        h = 4 + 10 * n / cmax
        yb = c.top + c.plot_h
        c.add(f'<line x1="{px}" y1="{yb}" x2="{px}" y2="{_f(yb - h)}" '
              f'stroke="#2a7f3f" stroke-width="2" stroke-opacity="0.5"/>')
    return c.render()


def histogram_svg(values, title, xlabel, vlines=()) -> str:
    values = np.asarray(values, dtype=float)
    counts, edges = np.histogram(values, bins=_HIST_BINS)
    c = _Canvas(margin=(40, 25, 50, 65))
    c.title(title)
    xlim = (float(edges[0]), float(edges[-1]))
    ylim = (0.0, float(counts.max()) * 1.08 if counts.max() else 1.0)
    c.frame()
    c.xlabel(xlabel)
    c.ylabel("count")
    c.xticks(np.linspace(*xlim, 5), *xlim, fmt=".2g")
    c.yticks(np.linspace(0, ylim[1], 4), *ylim, fmt=".0f")
    for k, n in enumerate(counts):
        if n == 0:
            continue
        x0 = c.x(edges[k], *xlim)
        x1 = c.x(edges[k + 1], *xlim)
        y1 = c.y(float(n), *ylim)
        y0 = c.y(0.0, *ylim)
        c.add(f'<rect x="{_f(x0)}" y="{_f(y1)}" width="{_f(x1 - x0)}" '
              f'height="{_f(y0 - y1)}" fill="#1f6fb2" fill-opacity="0.75" '
              f'stroke="white" stroke-width="0.5"/>')
    for v, color, dash in vlines:
        px = _f(c.x(v, *xlim))
        c.add(f'<line x1="{px}" y1="{c.top}" x2="{px}" y2="{c.top + c.plot_h}" '
              f'stroke="{color}" stroke-dasharray="{dash}"/>')
    return c.render()
