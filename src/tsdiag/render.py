"""Self-contained SVG rendering of time-space diagrams.

Output is plain text built with fixed number formatting, so identical
diagrams render to byte-identical documents.
"""

from __future__ import annotations

import math

from .trajectory import TimeSpaceDiagram

__all__ = ["render_svg"]

_PREDICTED_COLOR = "#1f77b4"
_REFERENCE_COLOR = "#d62728"
_PROBE_COLOR = "#555555"
_WIDTH, _HEIGHT = 900, 620  # document size [px]


def _nice_step(span: float) -> float:
    if span <= 0.0:
        return 1.0
    raw = span / 6  # about 6 ticks
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * magnitude:
            return mult * magnitude
    return 10.0 * magnitude


def _ticks(lo: float, hi: float) -> dict[str, float]:
    """The multiples of a nice step in [lo, hi] by their labels, built by
    index: a step under half an ulp of lo would leave a running sum where
    it is.  Of ticks whose labels read the same, the first is kept."""
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step - 1e-9)
    last = math.floor(hi / step + 1e-9)
    ticks: dict[str, float] = {}
    for k in range(first, last + 1):
        tick = 0.0 + k * step
        ticks.setdefault(f"{tick:g}", tick)
    return ticks


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _xml_text(text: str) -> str:
    # by hand: xml.sax.saxutils would put urllib into every run's start-up
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(diagram: TimeSpaceDiagram,
               reference: TimeSpaceDiagram | None = None, *,
               title: str | None = None) -> str:
    """Render one diagram (optionally overlaying a reference in red)."""
    margin_left, margin_right, margin_top, margin_bottom = 70, 30, 40, 55
    plot_w = _WIDTH - margin_left - margin_right
    plot_h = _HEIGHT - margin_top - margin_bottom

    diagrams = [diagram] + ([reference] if reference is not None else [])
    t_values = []
    d_values = [0.0, diagram.link_length_m]
    for dia in diagrams:
        t_values.extend(t for t, _ in dia.probe_trajectory)
        d_values.extend(d for _, d in dia.probe_trajectory)
        for points in dia.vehicle_trajectories.values():
            t_values.extend(p.time_s for p in points)
            d_values.extend(p.link_distance_m for p in points)
    # the time axis spans the drawn times, first to last
    t_min, t_max = min(t_values, default=0.0), max(t_values, default=0.0)
    if t_max <= t_min:
        t_max = t_min + 1.0
    d_min = min(d_values)
    d_max = max(d_values)
    if d_max <= d_min:
        d_max = d_min + 1.0

    def sx(t: float) -> float:
        return margin_left + ((t - t_min) / (t_max - t_min)) * plot_w

    def sy(d: float) -> float:
        return margin_top + plot_h - ((d - d_min) / (d_max - d_min)) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.0f}" y="24" font-family="monospace" font-size="15" '
            f'text-anchor="middle">{_xml_text(title)}</text>')

    for label, tick in _ticks(t_min, t_max).items():
        x = sx(tick)
        parts.append(f'<line x1="{_fmt(x)}" y1="{margin_top}" x2="{_fmt(x)}" '
                     f'y2="{margin_top + plot_h}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(x)}" y="{margin_top + plot_h + 18}" '
                     f'font-family="monospace" font-size="11" text-anchor="middle">'
                     f'{label}</text>')
    for label, tick in _ticks(d_min, d_max).items():
        y = sy(tick)
        parts.append(f'<line x1="{margin_left}" y1="{_fmt(y)}" '
                     f'x2="{margin_left + plot_w}" y2="{_fmt(y)}" '
                     f'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{margin_left - 8}" y="{_fmt(y + 4)}" '
                     f'font-family="monospace" font-size="11" text-anchor="end">'
                     f'{label}</text>')

    parts.append(f'<rect x="{margin_left}" y="{margin_top}" width="{plot_w}" '
                 f'height="{plot_h}" fill="none" stroke="black" stroke-width="1"/>')
    parts.append(f'<text x="{margin_left + plot_w / 2:.0f}" y="{_HEIGHT - 12}" '
                 f'font-family="monospace" font-size="13" text-anchor="middle">'
                 f'time [s]</text>')
    parts.append(f'<text x="18" y="{margin_top + plot_h / 2:.0f}" '
                 f'font-family="monospace" font-size="13" text-anchor="middle" '
                 f'transform="rotate(-90 18 {margin_top + plot_h / 2:.0f})">'
                 f'link distance [m]</text>')

    def polyline(points_xy, color, dash=None, width_px=1.5):
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points_xy)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="{width_px}"{dash_attr} points="{coords}"/>')

    def draw(dia: TimeSpaceDiagram, color: str):
        polyline([(sx(t), sy(d)) for t, d in dia.probe_trajectory],
                 _PROBE_COLOR, dash="6 4", width_px=1.2)
        for track_id in sorted(dia.vehicle_trajectories):
            points = dia.vehicle_trajectories[track_id]
            polyline([(sx(p.time_s), sy(p.link_distance_m)) for p in points], color)
            if points:
                last = points[-1]
                parts.append(
                    f'<text x="{_fmt(sx(last.time_s) + 4)}" '
                    f'y="{_fmt(sy(last.link_distance_m))}" font-family="monospace" '
                    f'font-size="10" fill="{color}">{track_id}</text>')

    if reference is not None:
        draw(reference, _REFERENCE_COLOR)
    draw(diagram, _PREDICTED_COLOR)

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
