"""Morphism and extension dimensions for arcs, and the factorization oracle.

All morphism spaces here are zero- or one-dimensional, so the engine only
ever reports dimensions together with combinatorial witnesses; no field
scalars are materialized.

On an uncompleted surface, a nonzero map g -> d exists exactly when g
crosses the predecessor shift of d.  On a completed surface the nonzero
maps are classified by `ext_case`.  The restricted extension `ext_dim`
keeps only extensions whose connecting map factors through a persistent
(odd-interval) arc upstairs; `ext_dim_oracle` recomputes it from that
definition, never consulting `ext_dim`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .arcs import Arc, ArcClass, canonical_lift, cross_transverse, keys_interleave, shift_arc, squeeze
from .surface import MixedSurfaceError, Point, _orient, adjacent, between


class ExtCase(Enum):
    """Why a completed arc pair carries a one-step extension, if it does.

    The values are the names ``infgon ext`` prints.
    """

    CROSSING = "TransverseCross"
    CLOCKWISE_AT_ACCUMULATION = "ClockwiseAtAccumulation"
    DOUBLE_ACCUMULATION_SELF = "DoubleAccumulationSelf"
    NONE = "NoExt"


@dataclass(frozen=True)
class BoundaryInterval:
    """Closed anticlockwise boundary interval [start -> end].

    When start == end the interval is the single point.  Otherwise it is
    every point met walking anticlockwise from start to end, inclusive.
    """

    start: Point
    end: Point

    def contains(self, w: Point) -> bool:
        if self.start == self.end:
            return w == self.start
        if w == self.start or w == self.end:
            return True
        return _orient(self.start.circuit_key(), w.circuit_key(), self.end.circuit_key())

    def runs_on(self, k: int) -> list[tuple[int | None, int | None]]:
        """Position ranges of interval k's regular points inside, in order.

        Read off the two ends alone; None means unbounded on that side.  Two
        ranges come back only when the interval wraps from its start round
        into the start's own marked interval.
        """
        sx, px = self.start.circuit_key()
        sy, py = self.end.circuit_key()
        s = 2 * k - 1
        if sx == sy:
            if px <= py:  # the one point, or a stretch of one interval
                return [(px, py)] if s == sx else []
            return [(px, None), (None, py)] if s == sx else [(None, None)]
        if s == sx:
            return [(px, None)]
        if s == sy:
            return [(None, py)]
        return [(None, None)] if _orient(sx, s, sy) else []


def open_interval_segments(x: Point, y: Point) -> list[tuple]:
    """Ordered decomposition of the open anticlockwise interval (x, y), endpoints excluded.

    Pieces are ('run', interval, lo, hi), with inclusive position bounds and
    None for unbounded, and ('acc', interval).  Neighbour scans do not call
    it; the tests use it as the reference route that ``neighbor_scan`` is
    checked against.
    """
    if x == y:
        raise ValueError("open interval needs distinct endpoints")
    sx, px = x.circuit_key()
    sy, py = y.circuit_key()
    if sx == sy and px < py:
        # Same accumulation slot would force x == y, so both points are regular.
        lo, hi = px + 1, py - 1
        return [("run", x.interval, lo, hi)] if lo <= hi else []

    # With sx == sy and px > py the interval wraps nearly the whole circle: i == j below.
    out: list[tuple] = [] if x.pos is None else [("run", x.interval, px + 1, None)]
    slots = list(range(1, 2 * x.surface.intervals + 1, 1 if x.surface.completed else 2))
    i, j = slots.index(sx), slots.index(sy)
    middle = slots[i + 1 : j] if i < j else slots[i + 1 :] + slots[:j]
    for s in middle:
        out.append(("acc", s // 2) if s % 2 == 0 else ("run", (s + 1) // 2, None, None))
    if y.pos is not None:
        out.append(("run", y.interval, None, py - 1))
    return out


def _key_case(x: tuple[int, int], y: tuple[int, int], u: tuple[int, int], v: tuple[int, int]) -> ExtCase:
    """Classify the arc pair with sorted endpoint keys x < y and u < v.

    A key with an even slot is an accumulation point; uncompleted keys never
    have one, so there only the crossing case can hold.
    """
    if keys_interleave(x, y, u, v):
        return ExtCase.CROSSING
    if (x, y) == (u, v):
        return ExtCase.DOUBLE_ACCUMULATION_SELF if x[0] % 2 == y[0] % 2 == 0 else ExtCase.NONE
    # distinct arcs share at most one endpoint
    for p, a in ((x, y), (y, x)):
        if p[0] % 2 == 0 and (p == u or p == v):
            b = v if p == u else u
            return ExtCase.CLOCKWISE_AT_ACCUMULATION if _orient(p, b, a) else ExtCase.NONE
    return ExtCase.NONE


def hom_dim(g: Arc, d: Arc) -> int:
    """Dimension (0 or 1) of the morphism space g -> d.

    Nonzero exactly when g and the predecessor shift of d, whose keys are
    read off d's, fall in a case of `ext_case` (uncompleted: they cross).
    """
    if g.surface is not d.surface:
        raise MixedSurfaceError("arcs on different surfaces")
    ka, kb = d.ka, d.kb
    u = (ka[0], ka[1] - 1) if ka[0] % 2 else ka
    v = (kb[0], kb[1] - 1) if kb[0] % 2 else kb
    return 0 if _key_case(g.ka, g.kb, u, v) is ExtCase.NONE else 1


def ext_case(g: Arc, d: Arc) -> ExtCase:
    """Classify whether the completed pair (g, d) carries an extension of d by g.

    Crossing pairs always do.  Distinct arcs meeting at an accumulation
    point p carry one exactly when the angle from g to d at p, seen from
    inside the disc, turns clockwise; that holds for at most one ordering.
    An arc with both endpoints at accumulation points extends itself.
    """
    if g.surface is not d.surface:
        raise MixedSurfaceError("arcs on different surfaces")
    if not g.surface.completed:
        raise ValueError("ext_case applies to completed arcs")
    return _key_case(g.ka, g.kb, d.ka, d.kb)


def ext_ambient_dim(g: Arc, d: Arc) -> int:
    """Extension dimension before restricting: 0 or 1 per `ext_case`."""
    return 0 if ext_case(g, d) is ExtCase.NONE else 1


def ext_dim(g: Arc, d: Arc) -> int:
    """Restricted extension dimension between completed arcs: 1 iff they cross."""
    if g.surface is not d.surface:
        raise MixedSurfaceError("arcs on different surfaces")
    if not g.surface.completed:
        raise ValueError("ext_dim applies to completed arcs")
    return 1 if cross_transverse(g, d) else 0


def is_weak_ct(arcs_of_window: tuple[Arc, ...], T: frozenset[Arc]) -> bool:
    """T is weak cluster-tilting among the window arcs: exactly the arcs
    without extensions to T, and exactly those without extensions from T."""
    right = {x for x in arcs_of_window if all(ext_dim(x, t) == 0 for t in T)}
    if right != set(T):
        return False
    left = {x for x in arcs_of_window if all(ext_dim(t, x) == 0 for t in T)}
    return left == set(T)


def sweep_intervals(g: Arc, d: Arc) -> tuple[BoundaryInterval, BoundaryInterval]:
    """The two boundary intervals swept when rotating g clockwise onto d.

    Defined for uncompleted arcs with a nonzero map g -> d.  An arc factors
    a nonzero map g -> d exactly when it has one endpoint in each returned
    interval.  The strict interleaving witness below is unique up to
    swapping the two intervals.
    """
    if g.surface.completed:
        raise ValueError("sweep_intervals applies to uncompleted arcs")
    if hom_dim(g, d) != 1:
        raise ValueError("sweep_intervals needs a nonzero morphism g -> d")
    # keys of the endpoints, and of the predecessors of d's (regular) endpoints
    xs = ((g.a, g.ka), (g.b, g.kb))
    ys = ((d.a, (d.ka[0], d.ka[1] - 1)), (d.b, (d.kb[0], d.kb[1] - 1)))
    for (x0, kx0), (x1, kx1) in (xs, xs[::-1]):
        for (y0, p2), (y1, p1) in (ys, ys[::-1]):
            if len({kx0, p1, kx1, p2}) == 4 and _orient(kx0, p1, kx1) and _orient(kx0, kx1, p2):
                return (BoundaryInterval(y0, x0), BoundaryInterval(y1, x1))
    raise AssertionError("no strict interleaving witness despite nonzero morphism")


def sweep_contains(sweep: tuple[BoundaryInterval, BoundaryInterval], arc: Arc) -> bool:
    """True iff the arc has one endpoint in each of the two swept intervals."""
    i0, i1 = sweep
    return (i0.contains(arc.a) and i1.contains(arc.b)) or (i0.contains(arc.b) and i1.contains(arc.a))


def _ranges_admit_separated_pair(r0: tuple, r1: tuple) -> bool:
    """Whether positions p in r0 and q in r1 exist with |p - q| >= 2."""
    lo0, hi0 = r0
    lo1, hi1 = r1
    if hi0 is None or lo1 is None or hi0 - lo1 >= 2:
        return True
    return hi1 is None or lo0 is None or hi1 - lo0 >= 2


def _collapsing_arc_in_sweep(i0: BoundaryInterval, i1: BoundaryInterval) -> bool:
    # the two sweeps are disjoint, so an interval both meet holds an end of each
    return any(
        k % 2 == 0 and any(_ranges_admit_separated_pair(r0, r1) for r0 in i0.runs_on(k) for r1 in i1.runs_on(k))
        for k in (i0.start.interval, i0.end.interval)
    )


def _first_odd_interval(sweep: BoundaryInterval) -> int | None:
    """The first odd interval the sweep meets, if any: its (regular) start's, or the next."""
    k = sweep.start.interval
    if k % 2 == 0:
        k = k % sweep.start.surface.intervals + 1
        if not sweep.runs_on(k):
            return None
    return k


def _persistent_arc_in_sweep(i0: BoundaryInterval, i1: BoundaryInterval) -> bool:
    k0, k1 = _first_odd_interval(i0), _first_odd_interval(i1)
    if k0 is None or k1 is None:
        return False
    # A persistent arc joins odd intervals, one met by each sweep.  A sweep that
    # meets a second odd interval runs past its first, unbounded on a side there,
    # so the separated-pair test holds: the first odd intervals decide.
    return k0 != k1 or any(_ranges_admit_separated_pair(r0, r1) for r0 in i0.runs_on(k0) for r1 in i1.runs_on(k0))


def factors_over(g: Arc, d: Arc, family: ArcClass | None = None) -> bool:
    """Whether a nonzero map g -> d factors through an arc of the given class.

    ``family`` None means all arcs.  Membership is decided symbolically on
    the two swept boundary intervals; the intervals may hold infinitely many
    points, so no arc enumeration happens.
    """
    i0, i1 = sweep_intervals(g, d)
    if family is None:
        return True  # d itself (or g, for the identity) always qualifies
    if family is ArcClass.COLLAPSING:
        return _collapsing_arc_in_sweep(i0, i1)
    if family is ArcClass.PERSISTENT:
        return _persistent_arc_in_sweep(i0, i1)
    raise ValueError(f"unsupported arc family {family}")


def ext_dim_oracle(g: Arc, d: Arc, lift_g: Arc | None = None, lift_d: Arc | None = None) -> int:
    """Recompute the restricted extension dimension from first principles.

    A restricted extension of d by g is a nonzero map g -> (shift of d) in
    the completed picture whose lift upstairs factors through a persistent
    arc while surviving the collapse (no collapsing arc can factor it).
    Both conditions are decided on the swept boundary intervals of the
    lifted pair.  Optional explicit lifts override the canonical ones; the
    answer does not depend on the choice.
    """
    if g.surface is not d.surface:
        raise MixedSurfaceError("arcs on different surfaces")
    if lift_g is not None and squeeze(lift_g) != g:
        raise ValueError("lift_g does not lie over g")
    if lift_d is not None and squeeze(lift_d) != d:
        raise ValueError("lift_d does not lie over d")
    if ext_case(g, d) is ExtCase.NONE:
        return 0
    lg = canonical_lift(g) if lift_g is None else lift_g
    sld = shift_arc(canonical_lift(d) if lift_d is None else lift_d, 1)
    if hom_dim(lg, sld) != 1:
        return 0
    i0, i1 = sweep_intervals(lg, sld)
    if _collapsing_arc_in_sweep(i0, i1):
        return 0
    return 1 if _persistent_arc_in_sweep(i0, i1) else 0


@dataclass(frozen=True)
class ExchangeSides:
    """Sides of the quadrilateral spanned by two crossing arcs.

    With the crossing pair (g, gp), ``alpha`` holds the two sides of the
    triangles realizing gp -> alpha1 (+) alpha2 -> g, and ``beta`` the sides
    for g -> beta1 (+) beta2 -> gp.  A side is None when its endpoints are
    adjacent, i.e. the side is a boundary segment.
    """

    alpha: tuple[Arc | None, Arc | None]
    beta: tuple[Arc | None, Arc | None]


def _side(p: Point, q: Point) -> Arc | None:
    if adjacent(p, q):
        return None
    return Arc(p, q)


def exchange_triangles(g: Arc, gp: Arc) -> ExchangeSides:
    """Quadrilateral sides for a crossing pair, split by exchange direction.

    Walking anticlockwise from an endpoint x of g the corners alternate
    x, u, y, v between the two arcs.  Alpha sides pair each endpoint of g
    with its clockwise neighbour among gp's endpoints; beta sides pair it
    with the anticlockwise neighbour.
    """
    if not cross_transverse(g, gp):
        raise ValueError("exchange_triangles needs a crossing pair")
    x, y = g.a, g.b
    u, v = gp.a, gp.b
    if not between(x, u, y):
        u, v = v, u
    alpha = (_side(x, v), _side(y, u))
    beta = (_side(x, u), _side(y, v))
    return ExchangeSides(alpha=alpha, beta=beta)
