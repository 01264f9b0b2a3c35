"""Deterministic SVG pictures of arcs and triangulations on a finite window.

Regular marked points are solid dots, accumulation points hollow circles,
arcs quadratic Bezier chords.  Families reaching beyond the window get a
dashed radial tick at the gap their invisible tail escapes to.  Output
bytes depend only on the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import limits
from .arcs import Arc, arc_key
from .surface import Point
from .triangulation import Family, Triangulation, Window, _escape

SIZE = 420  # width and height of the picture, in pixels


@dataclass(frozen=True)
class RenderSpec:
    radius: int
    highlight: tuple[Arc, ...] = ()

    def __post_init__(self) -> None:
        if self.radius < 2:
            raise ValueError("render window radius must be at least 2")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


class _Layout:
    def __init__(self, window: Window):
        self.cx = self.cy = SIZE / 2
        self.r = SIZE * 0.42
        pts = window.points
        self.angle = {}
        m = len(pts)
        for i, p in enumerate(pts):
            self.angle[p] = -math.pi / 2 + 2 * math.pi * i / m
        # angles of the gaps between intervals, for truncation ticks; the
        # render window holds every accumulation point and regular points on
        # every interval
        self.gap_angle = {}
        surface = window.surface
        for k in range(1, surface.intervals + 1):
            if surface.completed:
                self.gap_angle[k] = self.angle[Point(surface, k, None)]
            else:
                nxt = 1 if k == surface.intervals else k + 1
                last = max((p for p in pts if p.interval == k), key=lambda p: p.pos)
                first = min((p for p in pts if p.interval == nxt), key=lambda p: p.pos)
                a0, a1 = self.angle[last], self.angle[first]
                if a1 < a0:
                    a1 += 2 * math.pi
                self.gap_angle[k] = (a0 + a1) / 2

    def xy(self, p: Point) -> tuple[float, float]:
        a = self.angle[p]
        return (self.cx + self.r * math.cos(a), self.cy - self.r * math.sin(a))

    def chord(self, p: Point, q: Point) -> str:
        x1, y1 = self.xy(p)
        x2, y2 = self.xy(q)
        da = abs(self.angle[p] - self.angle[q]) % (2 * math.pi)
        if da > math.pi:
            da = 2 * math.pi - da
        pull = math.cos(da / 2)
        mx = (x1 + x2) / 2
        my = (y1 + y2) / 2
        cxp = self.cx + (mx - self.cx) * pull
        cyp = self.cy + (my - self.cy) * pull
        return f"M {_fmt(x1)} {_fmt(y1)} Q {_fmt(cxp)} {_fmt(cyp)} {_fmt(x2)} {_fmt(y2)}"

    def tick(self, angle: float) -> str:
        x1 = self.cx + self.r * 0.9 * math.cos(angle)
        y1 = self.cy - self.r * 0.9 * math.sin(angle)
        x2 = self.cx + self.r * 1.06 * math.cos(angle)
        y2 = self.cy - self.r * 1.06 * math.sin(angle)
        return f"M {_fmt(x1)} {_fmt(y1)} L {_fmt(x2)} {_fmt(y2)}"


def _truncation_gaps(t: Triangulation, radius: int) -> list[int]:
    """Gaps whose direction hides part of a family beyond the window of ``radius``.

    A family's tail toward an end of its domain is hidden when the domain is
    unbounded that way, or when the instance at its last parameter that way
    has a moving end beyond +/- radius: each moving end is monotone, so the
    instances that fit the window form one run of parameters.
    """
    gaps: set[int] = set()
    n = t.surface.intervals
    for gen in t.generators:
        if not isinstance(gen, Family):
            continue
        for end, last in ((1, gen.domain.hi), (-1, gen.domain.lo)):
            if last is None or any(abs(m.pos_at(last)) > radius for m in gen.moving_endpoints):
                gaps.update(_escape(m, end, n)[0] for m in gen.moving_endpoints)
    return sorted(gaps)


def render_svg(t: Triangulation, spec: RenderSpec) -> str:
    """The SVG picture of t's arcs within the symmetric window of radius ``spec.radius``.

    To draw an arc list, pass the triangulation of its distinct arcs with no
    claim, as ``infgon render --arcs`` does; it has no family, so no
    truncation tick.
    """
    limits.require(Window.symmetric_size(t.surface, spec.radius), limits.POINT_LIMIT, limits.RENDER_POINTS)
    window = Window.symmetric(t.surface, spec.radius)
    arcs = sorted(t.arcs_in_window(window), key=arc_key)
    trunc_gaps = _truncation_gaps(t, spec.radius)

    lay = _Layout(window)
    hl = set(spec.highlight)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" viewBox="0 0 {SIZE} {SIZE}">',
        f'<circle class="boundary" cx="{_fmt(lay.cx)}" cy="{_fmt(lay.cy)}" r="{_fmt(lay.r)}" fill="none" stroke="#999" stroke-width="2"/>',
    ]
    for a in arcs:
        cls = "arc hl" if a in hl else "arc"
        color = "#c22" if a in hl else "#226"
        parts.append(f'<path class="{cls}" d="{lay.chord(a.a, a.b)}" fill="none" stroke="{color}" stroke-width="1.5"/>')
    for gap in trunc_gaps:
        parts.append(
            f'<path class="trunc" d="{lay.tick(lay.gap_angle[gap])}" fill="none" stroke="#888" stroke-width="1.2" stroke-dasharray="3,2"/>'
        )
    for p in window.points:
        x, y = lay.xy(p)
        if p.pos is None:
            parts.append(f'<circle class="acc" cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="#fff" stroke="#000" stroke-width="1.4"/>')
        else:
            parts.append(f'<circle class="pt" cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="#000"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
