"""Arcs on a marked disc: crossing, shifting, squeezing and lifting.

An arc is an unordered pair of distinct, non-adjacent marked points.  The
squeeze map collapses every even-numbered interval of an uncompleted
surface with 2n intervals onto the accumulation point of a completed
surface with n intervals; odd intervals map onto the completed surface's
regular intervals order-preservingly.
"""

from __future__ import annotations

import re
from enum import Enum

from .surface import (
    MixedSurfaceError,
    Point,
    Surface,
    adjacent,
    format_point,
    parse_point,
)


class Arc:
    """Unordered pair of distinct, non-adjacent points on one surface.

    Endpoints are stored in circuit-key order so equal arcs compare and hash
    equal structurally.  The arc carries the circuit keys of its endpoints,
    ``ka`` of ``a`` and ``kb`` of ``b`` with ``ka < kb``, so crossing and
    ordering questions read them instead of recomputing them.  The trusted
    constructor ``Arc._trusted(a, b, ka, kb)`` checks nothing: it serves maps
    that send valid arcs to valid arcs and keep ``ka < kb`` (shift, lift).
    """

    __slots__ = ("a", "b", "ka", "kb", "surface", "_hash")

    def __init__(self, p: Point, q: Point):
        if p.surface is not q.surface:
            raise MixedSurfaceError(
                f"arc endpoints on {p.surface.describe()} and {q.surface.describe()}"
            )
        if p == q:
            raise ValueError(f"arc endpoints must be distinct, got {format_point(p)} twice")
        if adjacent(p, q):
            raise ValueError(
                f"arc endpoints must not be adjacent, got {format_point(p)}-{format_point(q)}"
            )
        kp, kq = p.circuit_key(), q.circuit_key()
        if kq < kp:
            p, q, kp, kq = q, p, kq, kp
        self._fill(p, q, kp, kq)

    @classmethod
    def _trusted(cls, a: Point, b: Point, ka: tuple[int, int], kb: tuple[int, int]) -> "Arc":
        arc = object.__new__(cls)
        arc._fill(a, b, ka, kb)
        return arc

    def _fill(self, a: Point, b: Point, ka: tuple[int, int], kb: tuple[int, int]) -> None:
        put = object.__setattr__
        put(self, "a", a)
        put(self, "b", b)
        put(self, "ka", ka)
        put(self, "kb", kb)
        put(self, "surface", a.surface)
        put(self, "_hash", hash((a, b)))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("arcs are immutable")

    def __reduce__(self):
        return (Arc, (self.a, self.b))

    @property
    def endpoints(self) -> tuple[Point, Point]:
        return (self.a, self.b)

    def other_endpoint(self, p: Point) -> Point:
        if p == self.a:
            return self.b
        if p == self.b:
            return self.a
        raise ValueError(f"{format_point(p)} is not an endpoint of {self}")

    def has_endpoint(self, p: Point) -> bool:
        return p == self.a or p == self.b

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Arc) and self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Arc({format_arc(self)} on {self.surface.describe()})"


def arc_key(g: Arc) -> tuple:
    """Canonical sort key: the circuit keys of the two endpoints, in order."""
    return (g.ka, g.kb)


class ArcClass(Enum):
    """Behaviour of an uncompleted arc under the squeeze map.

    COLLAPSING arcs have both endpoints in a single even interval and squeeze
    to a point.  PERSISTENT arcs have both endpoints in odd intervals; they
    cross no collapsing arc and embed into the completed picture.  MIXED is
    everything else.
    """

    COLLAPSING = "collapsing"
    PERSISTENT = "persistent"
    MIXED = "mixed"


def keys_interleave(x: tuple[int, int], y: tuple[int, int], u: tuple[int, int], v: tuple[int, int]) -> bool:
    """True iff the sorted key pairs x < y and u < v strictly interleave; a shared key never does."""
    return x < u < y < v or u < x < v < y


def cross_transverse(g: Arc, d: Arc) -> bool:
    """True iff the endpoints of g and d strictly interleave around the circle."""
    if g.surface is not d.surface:
        raise MixedSurfaceError("arcs on different surfaces")
    return keys_interleave(g.ka, g.kb, d.ka, d.kb)


def shift_arc(g: Arc, k: int) -> Arc:
    """Apply the successor map k times (predecessor for negative k) to both endpoints.

    Shifting keeps an arc valid and its key order, so nothing is re-validated.
    """
    a, b, ka, kb = g.a, g.b, g.ka, g.kb
    if a.pos is not None:
        a, ka = Point._make((a.surface, a.interval, a.pos + k)), (ka[0], ka[1] + k)
    if b.pos is not None:
        b, kb = Point._make((b.surface, b.interval, b.pos + k)), (kb[0], kb[1] + k)
    return Arc._trusted(a, b, ka, kb)


def squeeze_surface(surface: Surface) -> Surface:
    if surface.completed or surface.intervals % 2:
        raise ValueError(f"squeeze needs an uncompleted surface with evenly many intervals, got {surface.describe()}")
    return Surface(True, surface.intervals // 2)


def lift_surface(surface: Surface) -> Surface:
    if not surface.completed:
        raise ValueError(f"lift needs a completed surface, got {surface.describe()}")
    return Surface(False, 2 * surface.intervals)


def squeeze_point(p: Point, target: Surface | None = None) -> Point:
    target = target or squeeze_surface(p.surface)
    if p.interval % 2:
        return Point(target, (p.interval + 1) // 2, p.pos)
    return Point(target, p.interval // 2, None)


def squeeze(g: Arc) -> Arc | None:
    """Image of an uncompleted arc on the completed surface.

    Returns None when both endpoints sit in the same even interval: the
    image endpoints coincide and the arc collapses.
    """
    target = squeeze_surface(g.surface)
    p, q = squeeze_point(g.a, target), squeeze_point(g.b, target)
    if p == q:
        return None
    return Arc(p, q)


def canonical_lift(g: Arc) -> Arc:
    """Preferred preimage of a completed arc under the squeeze map.

    Regular points lift into the corresponding odd interval; accumulation
    points lift to position 0 of their even interval.  Any other choice of
    even-interval positions squeezes back to the same arc.  So a point with
    circuit key (s, p) lifts to position p of interval s, key (2s - 1, p): an
    order-keeping map that keeps the arc valid, so nothing is re-validated.
    """
    target = lift_surface(g.surface)
    (sa, pa), (sb, pb) = g.ka, g.kb
    return Arc._trusted(
        Point._make((target, sa, pa)), Point._make((target, sb, pb)), (2 * sa - 1, pa), (2 * sb - 1, pb)
    )


def classify(g: Arc) -> ArcClass:
    """Squeeze behaviour of an uncompleted arc (surface must have evenly many intervals)."""
    if g.surface.completed:
        raise ValueError("classify applies to uncompleted arcs")
    if g.surface.intervals % 2:
        raise ValueError("classification needs evenly many intervals")
    ka, kb = g.a.interval, g.b.interval
    if ka % 2 == 0 and ka == kb:
        return ArcClass.COLLAPSING
    if ka % 2 == 1 and kb % 2 == 1:
        return ArcClass.PERSISTENT
    return ArcClass.MIXED


_ARC_RE = re.compile(r"^(a\d+|\d+:-?\d+)-(a\d+|\d+:-?\d+)$")


def parse_arc(surface: Surface, text: str) -> Arc:
    m = _ARC_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse arc {text!r} (expected 'P-Q' with point syntax)")
    return Arc(parse_point(surface, m.group(1)), parse_point(surface, m.group(2)))


def format_arc(g: Arc) -> str:
    return f"{format_point(g.a)}-{format_point(g.b)}"
