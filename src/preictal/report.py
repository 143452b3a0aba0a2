"""Error-trace report: raw and smoothed reconstruction error on one panel with
the threshold line, seizure-onset markers, and pre-ictal shading.

SVG is emitted as plain text so tests can assert on element counts; element
classes: error-raw, error-smoothed, threshold, onset, preictal-band.
"""
from __future__ import annotations

import numpy as np

from .anomaly import ErrorSeries, Threshold
from .ingest.records import SeizureAnnotation

WIDTH, HEIGHT = 960, 300
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 56, 16, 24, 36


def _fmt(v: float) -> str:
    return f"{v:.2f}"


class _Plot:
    def __init__(self, t_max: float, y_max: float):
        self.t_max = max(t_max, 1e-9)
        self.y_max = max(y_max, 1e-12)
        self.x0, self.x1 = MARGIN_L, WIDTH - MARGIN_R
        self.y0, self.y1 = HEIGHT - MARGIN_B, MARGIN_T

    # x and y map a time or value, or an array of them

    def x(self, t):
        return self.x0 + (self.x1 - self.x0) * (t / self.t_max)

    def y(self, v):
        v = np.minimum(np.maximum(v, 0.0), self.y_max)
        return self.y0 + (self.y1 - self.y0) * (v / self.y_max)

    def polyline(self, ts: np.ndarray, vs: np.ndarray, cls: str, color: str, width: float) -> str:
        pts = " ".join([f"{x:.2f},{y:.2f}"
                        for x, y in zip(self.x(ts).tolist(), self.y(vs).tolist())])
        return (f'<polyline class="{cls}" fill="none" stroke="{color}" '
                f'stroke-width="{width}" points="{pts}"/>')


def render_report_svg(raw: ErrorSeries, smoothed: ErrorSeries, threshold: Threshold,
                      annotations: list[SeizureAnnotation], times_s: np.ndarray,
                      preictal_len_s: float, title: str = "") -> str:
    """One panel, Fig-5 style: blue error curves, red threshold line, red dashed
    onset markers, turquoise pre-ictal bands."""
    times_s = np.asarray(times_s, dtype=np.float64)
    if len(times_s) != len(raw) or len(raw) != len(smoothed):
        raise ValueError("times, raw and smoothed series must align")
    t_max = float(times_s[-1]) if len(times_s) else 1.0
    y_max = float(max(np.max(raw.errors), np.max(smoothed.errors), threshold.tau) * 1.05)
    p = _Plot(t_max, y_max)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{MARGIN_L}" y="16" font-size="13" font-family="sans-serif">{title}</text>',
    ]

    for ann in annotations:
        b0, b1 = max(ann.onset_s - preictal_len_s, 0.0), ann.onset_s
        if b1 <= 0 or b0 >= t_max:
            continue
        x0, x1 = p.x(max(b0, 0.0)), p.x(min(b1, t_max))
        parts.append(f'<rect class="preictal-band" x="{_fmt(x0)}" y="{p.y1}" '
                     f'width="{_fmt(max(x1 - x0, 0.5))}" height="{p.y0 - p.y1}" '
                     f'fill="turquoise" opacity="0.25"/>')

    parts.append(p.polyline(times_s, raw.errors, "error-raw", "#9ecae1", 0.8))
    parts.append(p.polyline(times_s, smoothed.errors, "error-smoothed", "#1f77b4", 1.6))

    ty = p.y(threshold.tau)
    parts.append(f'<line class="threshold" x1="{p.x0}" y1="{_fmt(ty)}" x2="{p.x1}" '
                 f'y2="{_fmt(ty)}" stroke="red" stroke-width="1.2"/>')

    for ann in annotations:
        if 0 <= ann.onset_s <= t_max:
            ox = p.x(ann.onset_s)
            parts.append(f'<line class="onset" x1="{_fmt(ox)}" y1="{p.y1}" x2="{_fmt(ox)}" '
                         f'y2="{p.y0}" stroke="red" stroke-width="1" stroke-dasharray="6,4"/>')

    # axes
    parts.append(f'<line x1="{p.x0}" y1="{p.y0}" x2="{p.x1}" y2="{p.y0}" stroke="black"/>')
    parts.append(f'<line x1="{p.x0}" y1="{p.y0}" x2="{p.x0}" y2="{p.y1}" stroke="black"/>')
    parts.append(f'<text x="{(p.x0 + p.x1) / 2}" y="{HEIGHT - 10}" font-size="11" '
                 f'font-family="sans-serif" text-anchor="middle">time (s)</text>')
    parts.append(f'<text x="14" y="{(p.y0 + p.y1) / 2}" font-size="11" font-family="sans-serif" '
                 f'transform="rotate(-90 14 {(p.y0 + p.y1) / 2})" '
                 f'text-anchor="middle">reconstruction error</text>')
    parts.append(f'<text x="{p.x1}" y="{_fmt(ty - 4)}" font-size="10" fill="red" '
                 f'font-family="sans-serif" text-anchor="end">tau = {threshold.tau:.6g}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
