"""Minimal deterministic SVG emission for scenes, trees, and benchmark curves.

Hand-rolled rather than using a plotting library so the output is stable
text that tests can assert on.
"""

from __future__ import annotations

import math

from .bandit import Arm
from .cspace import Scene
from .planner import PLANNER_NAMES, TAG_BURNIN, TAG_FOR_ARM

ARM_COLORS = {
    TAG_BURNIN: "#7ac74f",
    TAG_FOR_ARM[Arm.UNIFORM]: "#1f77b4",
    TAG_FOR_ARM[Arm.PC_POSITIVE]: "#2ca02c",
    TAG_FOR_ARM[Arm.PC_NEGATIVE]: "#d62728",
}
# One color per planner, in the order of PLANNER_NAMES.
PLANNER_COLORS = dict(zip(PLANNER_NAMES, ("#d62728", "#1f77b4", "#9467bd", "#2ca02c", "#ff7f0e"), strict=True))
RSTAR_COLOR = "#ff8c00"
# The width and height, in pixels, of a tree picture and of a success-curve plot.
TREE_PX, CURVES_PX = 600, 700


def _fmt(x: float) -> str:
    return f"{x:.3f}".rstrip("0").rstrip(".")


class SvgCanvas:
    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.elements: list[str] = []

    def rect(self, x, y, w, h, fill="none", stroke="none", opacity=1.0):
        self.elements.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" '
            f'fill="{fill}" stroke="{stroke}" opacity="{_fmt(opacity)}"/>'
        )

    def circle(self, cx, cy, r, fill="none", stroke="none", stroke_width=1.0):
        self.elements.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="{_fmt(stroke_width)}"/>'
        )

    def line(self, x1, y1, x2, y2, stroke="#000", stroke_width=1.0):
        self.elements.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{_fmt(stroke_width)}"/>'
        )

    def polyline(self, pts, stroke="#000", stroke_width=1.5):
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
        self.elements.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" stroke-width="{_fmt(stroke_width)}"/>'
        )

    def text(self, x, y, content, size=12, anchor="start"):
        # What xml.sax.saxutils.escape does, without importing it: it pulls in
        # urllib.request, about 20 ms at start-up.
        content = content.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        self.elements.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" text-anchor="{anchor}" '
            f'font-family="sans-serif">{content}</text>'
        )

    def render(self) -> str:
        body = "\n".join(self.elements)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" height="{self.height}" '
            f'viewBox="0 0 {self.width} {self.height}">\n'
            f'<rect x="0" y="0" width="{self.width}" height="{self.height}" fill="white"/>\n'
            f"{body}\n</svg>\n"
        )


def render_tree_svg(scene: Scene, trace: dict | None = None) -> str:
    """Scene geometry plus (optionally) tree edges colored by producing arm,
    the final entropy radius, and the solution path, from a trace dump."""
    if scene.dimension != 2:
        raise ValueError("tree rendering supports 2-D scenes only")
    lo, hi = scene.bounds.lo, scene.bounds.hi
    span = max(hi[0] - lo[0], hi[1] - lo[1])
    scale = (TREE_PX - 20) / span

    def to_px(p):
        return 10 + (p[0] - lo[0]) * scale, TREE_PX - 10 - (p[1] - lo[1]) * scale

    canvas = SvgCanvas(TREE_PX, TREE_PX)
    bx, by = to_px((lo[0], hi[1]))
    canvas.rect(bx, by, (hi[0] - lo[0]) * scale, (hi[1] - lo[1]) * scale, stroke="#888")

    for obs in scene.obstacles:
        x, y = to_px((obs.lo[0], obs.hi[1]))
        canvas.rect(x, y, (obs.hi[0] - obs.lo[0]) * scale, (obs.hi[1] - obs.lo[1]) * scale, fill="#333")

    if trace:
        nodes = trace.get("nodes", [])
        parents = trace.get("parents", [])
        tags = trace.get("tags", [])
        for i in range(1, len(nodes)):
            x1, y1 = to_px(nodes[parents[i]])
            x2, y2 = to_px(nodes[i])
            canvas.line(x1, y1, x2, y2, stroke=ARM_COLORS.get(tags[i], "#999"), stroke_width=1.0)
        r_star = trace.get("r_star")
        if r_star:
            cx, cy = to_px(scene.start)
            canvas.circle(cx, cy, r_star * scale, stroke=RSTAR_COLOR, stroke_width=2.0)
        path = trace.get("path")
        if path:
            canvas.polyline([to_px(p) for p in path], stroke="#000", stroke_width=2.0)

    sx, sy = to_px(scene.start)
    canvas.rect(sx - 4, sy - 4, 8, 8, fill="#7ac74f")
    if scene.goal.kind == "ball":
        gx, gy = to_px(scene.goal.center)
        canvas.circle(gx, gy, max(3.0, scene.goal.tolerance * scale), stroke="#d62728", stroke_width=2.0)
    else:
        cx, cy = to_px(scene.start)
        canvas.circle(cx, cy, scene.goal.threshold * scale, stroke="#d62728", stroke_width=1.0)
    return canvas.render()


def render_success_curves(curves: dict[tuple[str, str], list[tuple[float, float]]],
                          timeout: float) -> str:
    """Step curves of cumulative solve fraction vs time, log-scale time axis.

    `curves` maps (scene, planner) to sorted (time, fraction) step points.
    """
    canvas = SvgCanvas(CURVES_PX, CURVES_PX)
    m = 60  # margin
    w, h = CURVES_PX - 2 * m, CURVES_PX - 2 * m
    t_min = min([t for pts in curves.values() for t, _ in pts if t > 0], default=0.01)
    t_min = min(t_min, timeout / 100.0)

    def x_px(t):
        t = max(t, t_min)
        return m + w * (math.log10(t) - math.log10(t_min)) / (math.log10(timeout) - math.log10(t_min))

    def y_px(frac):
        return m + h * (1.0 - frac)

    canvas.rect(m, m, w, h, stroke="#888")
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        canvas.line(m, y_px(frac), m + w, y_px(frac), stroke="#ddd")
        canvas.text(m - 8, y_px(frac) + 4, f"{frac:.2f}", anchor="end")
    decade = math.ceil(math.log10(t_min))
    while 10**decade <= timeout:
        canvas.line(x_px(10**decade), m, x_px(10**decade), m + h, stroke="#ddd")
        canvas.text(x_px(10**decade), m + h + 16, f"1e{decade}", anchor="middle")
        decade += 1
    canvas.text(CURVES_PX / 2, CURVES_PX - 12, "time [s]", anchor="middle")
    canvas.text(m, m - 12, "success rate")

    legend_y = m + 14
    for (scene_name, planner), pts in sorted(curves.items()):
        color = PLANNER_COLORS.get(planner, "#555")
        poly = [(x_px(t_min), y_px(0.0))]
        prev = 0.0
        for t, frac in pts:
            poly.append((x_px(t), y_px(prev)))
            poly.append((x_px(t), y_px(frac)))
            prev = frac
        poly.append((x_px(timeout), y_px(prev)))
        canvas.polyline(poly, stroke=color)
        canvas.text(m + w - 8, legend_y, f"{scene_name} / {planner}", anchor="end")
        canvas.line(m + w - 180, legend_y - 4, m + w - 160, legend_y - 4, stroke=color, stroke_width=3)
        legend_y += 16
    return canvas.render()
