"""Minimal hand-rolled SVG emitter for score trajectories.

Diagnostics only: ID and OOD arrival scores as dots, the fixed inner margin
as a dashed line, and the running outlier margin as a polyline. No plotting
dependency; output is deterministic.
"""

from __future__ import annotations

from .engine import EventLog

_W, _H = 900, 420
_PAD = 50


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in values]


def emit_score_plot(path, log: EventLog, m_in: float, header_comment: str) -> None:
    n = len(log)
    if not n:
        raise ValueError("cannot plot an empty event log")
    scores = log.score.tolist()
    m_outs = log.m_out.tolist()
    lo = min(min(scores), min(m_outs), m_in)
    hi = max(max(scores), max(m_outs), m_in)
    xs = _scale(range(n), 0, max(n - 1, 1), _PAD, _W - _PAD)
    ys = _scale(scores, lo, hi, _H - _PAD, _PAD)
    ym = _scale(m_outs, lo, hi, _H - _PAD, _PAD)
    (y_in,) = _scale([m_in], lo, hi, _H - _PAD, _PAD)

    parts = [f"<!-- {header_comment} -->",
             f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}">']
    parts.append(f'<rect width="{_W}" height="{_H}" fill="white"/>')
    # axes
    parts.append(f'<line x1="{_PAD}" y1="{_H - _PAD}" x2="{_W - _PAD}" y2="{_H - _PAD}" stroke="black"/>')
    parts.append(f'<line x1="{_PAD}" y1="{_PAD}" x2="{_PAD}" y2="{_H - _PAD}" stroke="black"/>')
    parts.append(f'<text x="{_PAD}" y="{_H - _PAD + 30}" font-size="12">t=0</text>')
    parts.append(f'<text x="{_W - _PAD - 40}" y="{_H - _PAD + 30}" font-size="12">t={n - 1}</text>')
    parts.append(f'<text x="4" y="{_H - _PAD}" font-size="12">{lo:.3g}</text>')
    parts.append(f'<text x="4" y="{_PAD}" font-size="12">{hi:.3g}</text>')
    # scores
    for is_ood, x, y in zip(log.is_ood.tolist(), xs, ys):
        color = "#d62728" if is_ood else "#1f77b4"
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="1.8" fill="{color}"/>')
    # margins
    parts.append(
        f'<line x1="{_PAD}" y1="{y_in:.2f}" x2="{_W - _PAD}" y2="{y_in:.2f}" '
        f'stroke="#2ca02c" stroke-dasharray="6,4"/>'
    )
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ym))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#ff7f0e" stroke-width="1.5"/>')
    parts.append(
        f'<text x="{_W - _PAD - 180}" y="{_PAD - 10}" font-size="12">'
        "blue: ID, red: OOD, green: inner margin, orange: outlier margin</text>"
    )
    parts.append("</svg>")
    with open(path, "w", encoding="ascii") as f:
        f.write("\n".join(parts) + "\n")
