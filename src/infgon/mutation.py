"""Approximations, mutability, flips and module generators over triangulations.

The four neighbour scans of an arc inside a triangulation determine
everything here: whether one-sided approximations exist, whether the arc is
the diagonal of a quadrilateral (and hence flippable), and which arcs
generate the incoming morphisms from the triangulation into a shifted arc.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional, Union

from . import limits
from .affine import IntRange
from .arcs import Arc, arc_key
from .homs import ExtCase, exchange_triangles, ext_case, hom_dim
from .surface import MixedSurfaceError, Point, step
from .triangulation import (
    CERTIFIED_MAXIMAL,
    Family,
    LimitKind,
    NeighborScan,
    Side,
    Single,
    Triangulation,
    TriangulationError,
    _replace_arc,
    ext_param_ranges,
    limit_of_family,
    neighbor_scan,
)


# a frame entry whose scan is nonempty without an attained extremum
UNDEFINED = None


@dataclass(frozen=True)
class QuadFrame:
    """The four neighbour points around an arc {u, v} in a triangulation.

    Each entry is the extremum of the corresponding scan, the default
    successor/predecessor when the scan is empty, or UNDEFINED (None) when
    the scan is nonempty without an attained extremum.  ``scans`` keeps the
    four scans, in the order of the entries.
    """

    arc: Arc
    u: Point
    v: Point
    u_left: Optional[Point]
    u_right: Optional[Point]
    v_left: Optional[Point]
    v_right: Optional[Point]
    scans: tuple[NeighborScan, ...] = field(compare=False, repr=False)

    def entries(self) -> tuple[Optional[Point], Optional[Point], Optional[Point], Optional[Point]]:
        return (self.u_left, self.u_right, self.v_left, self.v_right)


def _frame_entry(scan: NeighborScan, e: Point, default_dir: int) -> Optional[Point]:
    return step(e, default_dir) if scan.empty else scan.extremum


def quad_frame(t: Triangulation, a: Arc) -> QuadFrame:
    if t.certificate is None:
        raise TriangulationError("quad frame needs a certified or window-checked triangulation")
    u, v = a.a, a.b
    scans = (
        neighbor_scan(t, a, u, Side.LEFT),
        neighbor_scan(t, a, u, Side.RIGHT),
        neighbor_scan(t, a, v, Side.LEFT),
        neighbor_scan(t, a, v, Side.RIGHT),
    )
    return QuadFrame(
        arc=a,
        u=u,
        v=v,
        u_left=_frame_entry(scans[0], u, 1),
        u_right=_frame_entry(scans[1], u, -1),
        v_left=_frame_entry(scans[2], v, 1),
        v_right=_frame_entry(scans[3], v, -1),
        scans=scans,
    )


@dataclass(frozen=True)
class ApproxResult:
    """One-sided approximation of an arc by the rest of its triangulation.

    When every relevant scan attains its bound the approximation exists and
    ``summands`` lists up to two arcs (possibly none: the zero object).
    Otherwise ``failed_scan`` carries the unbounded scan as a witness.
    """

    side: Side
    summands: Optional[tuple[Arc, ...]]
    failed_scan: Optional[NeighborScan]

    @property
    def exists(self) -> bool:
        return self.summands is not None


def approximate(t: Triangulation, a: Arc, side: Side) -> ApproxResult:
    scans = [(a.a, neighbor_scan(t, a, a.a, side)), (a.b, neighbor_scan(t, a, a.b, side))]
    for _, scan in scans:
        if not scan.empty and scan.extremum is None:
            return ApproxResult(side, None, scan)
    summands = tuple(Arc(e, scan.extremum) for e, scan in scans if not scan.empty)
    return ApproxResult(side, summands, None)


def mutability_report(t: Triangulation, a: Arc) -> tuple[bool, Optional[str], QuadFrame]:
    frame = quad_frame(t, a)
    if None in frame.entries():
        return (False, "NoExtremum", frame)
    if frame.u_left != frame.v_right or frame.u_right != frame.v_left:
        return (False, "FrameMismatch", frame)
    return (True, None, frame)


def is_mutable(t: Triangulation, a: Arc) -> bool:
    """The arc is flippable: its quadrilateral frame closes up."""
    return mutability_report(t, a)[0]


class MutabilityError(ValueError):
    def __init__(self, reason: str, witness):
        super().__init__(f"arc is not mutable: {reason}")
        self.reason = reason
        self.witness = witness


@dataclass(frozen=True)
class Conflation:
    """A kept extension start >-> middle -->> end, recorded by its objects.

    Middle entries are None where the corresponding quadrilateral side is a
    boundary segment.
    """

    start: Arc
    middle: tuple[Optional[Arc], Optional[Arc]]
    end: Arc


@dataclass(frozen=True)
class MutationResult:
    new_arc: Arc
    new_triangulation: Triangulation
    conflations: tuple[Conflation, Conflation]


def flip(t: Triangulation, a: Arc) -> MutationResult:
    """Replace a mutable arc by the other diagonal of its quadrilateral."""
    ok, reason, frame = mutability_report(t, a)
    if not ok:
        # the first unattained scan; a frame mismatch has none
        witness = next((s for s in frame.scans if not s.empty and s.extremum is None), frame)
        raise MutabilityError(reason, witness)
    new_arc = Arc(frame.u_right, frame.v_right)
    new_t = _replace_arc(t, a, new_arc)
    sides = exchange_triangles(a, new_arc)
    conflations = (
        Conflation(a, sides.beta, new_arc),
        Conflation(new_arc, sides.alpha, a),
    )
    return MutationResult(new_arc, new_t, conflations)


# --- module generators --------------------------------------------------------


@dataclass(frozen=True)
class NotFinitelyGenerated:
    """Witness that incoming morphisms from t need infinitely many generators."""

    generator: Family
    param_range: IntRange
    description: str


def _merge_ranges(ranges: list[IntRange]) -> list[IntRange]:
    rs = [r for r in ranges if not r.is_empty]
    if not rs:
        return []
    rs.sort(key=lambda r: (0, 0) if r.lo is None else (1, r.lo))
    merged: list[list] = [[rs[0].lo, rs[0].hi]]
    for r in rs[1:]:
        last = merged[-1]
        touches = last[1] is None or r.lo is None or r.lo <= last[1] + 1
        if touches:
            if last[1] is not None:
                last[1] = None if r.hi is None else max(last[1], r.hi)
        else:
            merged.append([r.lo, r.hi])
    return [IntRange(lo, hi) for lo, hi in merged]


def right_module_generators(t: Triangulation, g: Arc) -> Union[list[Arc], NotFinitelyGenerated]:
    """Generators of the incoming morphisms from t into the shift of g.

    The arcs of t admitting a nonzero map to the shifted g form support
    runs, one per family, and single arcs.  A run of a fan, cut in two where
    it jumps over its apex, is represented piece by piece by its finite ends
    and, where it is unbounded towards smaller partner positions, by the
    fan's limit arc, all ending at the apex; without that limit arc in the
    support no finite generating set exists.  A run with no common endpoint
    is listed arc by arc when bounded and is infinitely generated when not.
    Listed and single arcs join a group at an apex they end at, or at an
    endpoint they share with another of them.

    So every group holds arcs {p, q} sharing one point p, and ``hom_dim``
    orders them totally.  If q comes before r walking anticlockwise from p,
    the predecessor shift {p-, q-} of {p, q} separates p from r, so {p, r}
    crosses it (meets it clockwise, when p is an accumulation point) and maps
    to {p, q}; {p, q} lies on one side of {p-, r-} and does not map to
    {p, r}.  Each group thus has exactly one arc receiving a map from all
    the others, the one whose far end comes first, and contributes it.
    """
    if g.surface is not t.surface:
        raise MixedSurfaceError("query arc on the wrong surface")
    if not t.surface.completed:
        raise TriangulationError(f"module generators need a completed surface, got {t.surface.describe()!r}")
    if t.certificate != CERTIFIED_MAXIMAL:
        raise TriangulationError("module generators need a certified maximal triangulation")

    apex_candidates: dict[Point, set[Arc]] = defaultdict(set)
    loose: list[Arc] = []

    for gen in t.generators:
        if isinstance(gen, Single):
            if ext_case(gen.arc, g) is not ExtCase.NONE:
                loose.append(gen.arc)
            continue
        apex = gen.fixed_endpoint
        moving = gen.moving_endpoints[0]
        for r in _merge_ranges(ext_param_ranges(gen, g)):
            if apex is None:
                if not r.is_bounded:
                    return NotFinitelyGenerated(gen, r, "unbounded support run with no common endpoint")
                limits.require(r.hi - r.lo + 1, limits.FAN_WIDTH_LIMIT, limits.SUPPORT_RUN)
                loose.extend(gen.arc_at(t.surface, tt) for tt in r.iterate())
                continue
            # Walking anticlockwise from a regular apex meets the partners
            # above it on its own interval before those below it, so a run
            # that jumps over the apex is decided piece by piece.
            pieces = [r]
            if moving.interval == apex.interval and apex.pos is not None:
                pieces = [r.intersect(moving.params_with_pos_in(apex.pos + 1, None)),
                          r.intersect(moving.params_with_pos_in(None, apex.pos - 1))]
            # Morphisms between arcs of one piece run clockwise, i.e. towards
            # smaller partner positions, so only the position-minimal end of
            # each piece needs to be attained.
            min_end = 1 if moving.stride < 0 else -1
            for piece in pieces:
                if piece.is_empty:
                    continue
                if (piece.hi if min_end > 0 else piece.lo) is None:
                    lim = limit_of_family(t.surface, gen, end=min_end)
                    if (
                        lim.kind is not LimitKind.ARC
                        or not t.contains(lim.arc)
                        or ext_case(lim.arc, g) is ExtCase.NONE
                    ):
                        return NotFinitelyGenerated(gen, piece, "fan support unbounded past any limit arc")
                    apex_candidates[apex].add(lim.arc)
                apex_candidates[apex].update(gen.arc_at(t.surface, e) for e in (piece.lo, piece.hi) if e is not None)

    # attach loose arcs to an existing fan apex where possible
    still_loose: list[Arc] = []
    for arc in loose:
        attached = False
        for p in arc.endpoints:
            if p in apex_candidates:
                apex_candidates[p].add(arc)
                attached = True
        if not attached:
            still_loose.append(arc)

    # group the remaining loose arcs into fans at shared endpoints
    incidence: dict[Point, list[Arc]] = defaultdict(list)
    for arc in still_loose:
        for p in arc.endpoints:
            incidence[p].append(arc)
    covered: set[Arc] = set()
    for p, arcs in incidence.items():
        if len(arcs) >= 2:
            apex_candidates[p].update(arcs)
            covered.update(arcs)

    out: set[Arc] = {arc for arc in still_loose if arc not in covered}
    for cands in apex_candidates.values():
        out.update(c for c in cands if all(o == c or hom_dim(o, c) == 1 for o in cands))
    return sorted(out, key=arc_key)
