"""Static SVG and CSV export of a single imputation/prediction result.

Per agent: a solid polyline through the imputed past, circle markers at
the steps that were missing, a dashed polyline for the predicted future,
and a larger start marker at the first step. No interactive output.
"""

from __future__ import annotations

import numpy as np

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]

CSV_HEADER = "agent,t,x,y,kind"
SIZE, MARGIN = 640, 30  # square canvas side and inner margin, in pixels


def result_points_csv(mask, imputed, predicted) -> str:
    """One row per plotted point: T_past observed/imputed rows plus
    T_future predicted rows for every agent."""
    mask = np.asarray(mask)
    imputed = np.asarray(imputed)
    predicted = np.asarray(predicted)
    t_past, n, _ = imputed.shape
    lines = [CSV_HEADER]
    for agent in range(n):
        for t in range(t_past):
            kind = "observed" if mask[t, agent] > 0 else "imputed"
            x, y = imputed[t, agent]
            lines.append(f"{agent},{t},{x!r},{y!r},{kind}")
        for k in range(predicted.shape[0]):
            x, y = predicted[k, agent]
            lines.append(f"{agent},{t_past + k},{x!r},{y!r},predicted")
    return "\n".join(lines) + "\n"


def _projector(points):
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    scale = (SIZE - 2 * MARGIN) / span.max()

    def project(p):
        x = MARGIN + (p[0] - lo[0]) * scale
        y = SIZE - MARGIN - (p[1] - lo[1]) * scale  # flip y for svg
        return x, y

    return project


def _poly(points, project):
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in (project(p) for p in points))


def render_svg(mask, imputed, predicted) -> str:
    mask = np.asarray(mask)
    imputed = np.asarray(imputed)
    predicted = np.asarray(predicted)
    t_past, n, _ = imputed.shape
    everything = np.concatenate([imputed.reshape(-1, 2), predicted.reshape(-1, 2)])
    project = _projector(everything)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" '
             f'height="{SIZE}" viewBox="0 0 {SIZE} {SIZE}">',
             f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>']
    for agent in range(n):
        color = PALETTE[agent % len(PALETTE)]
        parts.append(f'<g class="agent" id="agent-{agent}">')
        parts.append(f'<polyline class="past" fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{_poly(imputed[:, agent], project)}"/>')
        if predicted.shape[0] > 0:
            tail = np.concatenate([imputed[-1:, agent], predicted[:, agent]])
            parts.append(f'<polyline class="future" fill="none" stroke="{color}" '
                         f'stroke-width="1.5" stroke-dasharray="6,4" '
                         f'points="{_poly(tail, project)}"/>')
        for t in range(t_past):
            if mask[t, agent] == 0:
                x, y = project(imputed[t, agent])
                parts.append(f'<circle class="missing" cx="{x:.2f}" cy="{y:.2f}" '
                             f'r="3" fill="{color}" fill-opacity="0.6"/>')
        sx, sy = project(imputed[0, agent])
        parts.append(f'<circle class="start" cx="{sx:.2f}" cy="{sy:.2f}" r="6" '
                     f'fill="none" stroke="{color}" stroke-width="2"/>')
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
