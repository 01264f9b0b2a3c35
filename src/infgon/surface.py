"""Marked points on the boundary of a disc, with exact cyclic order.

A surface is a disc whose boundary carries marked intervals, each a copy of
the integers.  Walking anticlockwise we pass interval 1 in ascending
position order, then interval 2, and so on.  On a *completed* surface the
two-sided limit at the anticlockwise end of interval k is itself a marked
point (the accumulation point ``ak``, sitting between intervals k and k+1);
on an uncompleted surface those limits are unmarked gaps.

Everything here is integer arithmetic.  Cyclic comparisons go through
"circuit keys": interval k contributes key ``(2k - 1, pos)`` for its regular
points and ``(2k, 0)`` for its accumulation point, so one anticlockwise
circuit is exactly lexicographic key order.

Surfaces are interned: ``Surface(completed, intervals)`` returns one shared
object per distinct pair, so two surfaces are equal exactly when they are
the same object, and code compares them with ``is``.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple


class MixedSurfaceError(ValueError):
    """An operation received points living on different surfaces."""


# One Surface per (completed, intervals); one small object per distinct surface.
_SURFACES: dict[tuple[bool, int], "Surface"] = {}


class Surface:
    """Disc boundary with ``intervals`` marked intervals.

    ``completed`` selects whether the accumulation point closing each
    interval is itself a marked point.  Instances are interned and
    immutable: equal surfaces are the same object, equality is identity,
    and the hash is that of ``(completed, intervals)``.
    """

    __slots__ = ("completed", "intervals", "_hash")

    completed: bool
    intervals: int

    def __new__(cls, completed: bool, intervals: int) -> "Surface":
        key = (bool(completed), intervals)
        surface = _SURFACES.get(key)
        if surface is not None:
            return surface
        if intervals < 1:
            raise ValueError(f"surface needs at least one interval, got {intervals}")
        surface = object.__new__(cls)
        object.__setattr__(surface, "completed", key[0])
        object.__setattr__(surface, "intervals", intervals)
        object.__setattr__(surface, "_hash", hash(key))
        return _SURFACES.setdefault(key, surface)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("surfaces are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("surfaces are immutable")

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Surface, (self.completed, self.intervals))

    def point(self, interval: int, pos: int) -> "Point":
        return Point(self, interval, pos)

    def accumulation(self, interval: int) -> "Point":
        return Point(self, interval, None)

    def describe(self) -> str:
        return f"{'completed' if self.completed else 'uncompleted'}:{self.intervals}"

    def __repr__(self) -> str:
        return f"Surface({self.describe()!r})"


class _PointBase(NamedTuple):
    surface: Surface
    interval: int
    pos: int | None


class Point(_PointBase):
    """A marked point: regular (``pos`` an integer) or accumulation (``pos`` None)."""

    __slots__ = ()

    def __new__(cls, surface: Surface, interval: int, pos: int | None):
        if not 1 <= interval <= surface.intervals:
            raise ValueError(f"interval {interval} out of range 1..{surface.intervals}")
        if pos is None and not surface.completed:
            raise ValueError("uncompleted surfaces have no accumulation points")
        return super().__new__(cls, surface, interval, pos)

    def __hash__(self) -> int:
        if self.pos is None:  # a constant for None, whose hash may differ per process
            return hash((self.surface, self.interval, 0.5))
        return tuple.__hash__(self)  # a regular point hashes as its tuple

    def circuit_key(self) -> tuple[int, int]:
        if self.pos is None:
            return (2 * self.interval, 0)
        return (2 * self.interval - 1, self.pos)

    def __repr__(self) -> str:
        return f"Point({format_point(self)} on {self.surface.describe()})"


def _orient(a: tuple[int, int], b: tuple[int, int], c: tuple[int, int]) -> bool:
    """True iff the pairwise-distinct circuit keys a, b, c occur anticlockwise.

    Exactly two of the three linear comparisons hold for an anticlockwise
    triple, exactly one for a clockwise triple.
    """
    return (a < b) + (b < c) + (c < a) == 2


def _require_same_surface(points: Iterable[Point]) -> Surface:
    it = iter(points)
    first = next(it)
    for p in it:
        if p.surface is not first.surface:
            raise MixedSurfaceError(f"points on {p.surface.describe()} and {first.surface.describe()}")
    return first.surface


def step(p: Point, direction: int) -> Point:
    """Successor (+1) or predecessor (-1).  Accumulation points are fixed."""
    if direction not in (1, -1):
        raise ValueError(f"direction must be +1 or -1, got {direction}")
    if p.pos is None:
        return p
    return Point(p.surface, p.interval, p.pos + direction)


def adjacent(p: Point, q: Point) -> bool:
    """True iff p and q are distinct neighbours under the successor map.

    Accumulation points are fixed by the successor map, so neighbours are
    regular points of one interval whose positions differ by one.
    """
    _require_same_surface((p, q))
    return (
        p.pos is not None
        and q.pos is not None
        and p.interval == q.interval
        and abs(p.pos - q.pos) == 1
    )


# Linear positions used inside one cut circuit.  The base point may be lifted
# to either end of the circuit; every other point has a unique lift.
_BOTTOM = (0,)
_TOP = (2,)


def cyclic_ordered(base: Point, chain: Iterable[Point]) -> bool:
    """Decide base <= y1 <= y2 <= ... <= base+ along one anticlockwise circuit.

    Inequalities are weak: equal consecutive points are allowed, and a chain
    entry equal to ``base`` may sit at either end of the circuit.
    """
    chain = tuple(chain)
    _require_same_surface((base, *chain))
    bkey = base.circuit_key()
    cur = _BOTTOM
    for p in chain:
        if p == base:
            cand = _BOTTOM if cur == _BOTTOM else _TOP
        else:
            k = p.circuit_key()
            cand = (1, 0 if k > bkey else 1, k)
            if cand < cur:
                return False
        cur = cand
    return True


def between(x: Point, w: Point, y: Point) -> bool:
    """True iff w lies strictly inside the open anticlockwise interval (x, y)."""
    _require_same_surface((x, w, y))
    if w == x or w == y or x == y:
        return False
    return _orient(x.circuit_key(), w.circuit_key(), y.circuit_key())


_POINT_RE = re.compile(r"^(?:a(\d+)|(\d+):(-?\d+))$")


def parse_point(surface: Surface, text: str) -> Point:
    m = _POINT_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse point {text!r} (expected 'k:i' or 'ak')")
    if m.group(1) is not None:
        return surface.accumulation(int(m.group(1)))
    return surface.point(int(m.group(2)), int(m.group(3)))


def format_point(p: Point) -> str:
    if p.pos is None:
        return f"a{p.interval}"
    return f"{p.interval}:{p.pos}"


_SURFACE_RE = re.compile(r"^(uncompleted|completed):(\d+)$")


def parse_surface(text: str) -> Surface:
    m = _SURFACE_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse surface {text!r} (expected 'completed:n' or 'uncompleted:m')")
    return Surface(m.group(1) == "completed", int(m.group(2)))
