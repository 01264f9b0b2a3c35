"""Approximations, mutability, flips and module generators over triangulations.

The four neighbour scans of an arc inside a triangulation determine
everything here: whether one-sided approximations exist, whether the arc is
the diagonal of a quadrilateral (and hence flippable), and which arcs
generate the incoming morphisms from the triangulation into a shifted arc.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Optional, Union

from .affine import IntRange
from .arcs import Arc, arc_key, format_arc
from .homs import ExtCase, exchange_triangles, ext_case, hom_dim
from .surface import MixedSurfaceError, Point, step
from .triangulation import (
    CertificateStatus,
    Family,
    LimitKind,
    NeighborScan,
    ResourceLimitError,
    Side,
    Single,
    Triangulation,
    TriangulationError,
    ext_param_ranges,
    family_param_of,
    limit_of_family,
    neighbor_scan,
)


class _UndefinedType:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNDEFINED"


UNDEFINED = _UndefinedType()

FrameEntry = Union[Point, _UndefinedType]


@dataclass(frozen=True)
class QuadFrame:
    """The four neighbour points around an arc {u, v} in a triangulation.

    Each entry is the extremum of the corresponding scan, the default
    successor/predecessor when the scan is empty, or UNDEFINED when the scan
    is nonempty without an attained extremum.
    """

    arc: Arc
    u: Point
    v: Point
    u_left: FrameEntry
    u_right: FrameEntry
    v_left: FrameEntry
    v_right: FrameEntry

    def entries(self) -> tuple[FrameEntry, FrameEntry, FrameEntry, FrameEntry]:
        return (self.u_left, self.u_right, self.v_left, self.v_right)


def _frame_entry(scan: NeighborScan, e: Point, default_dir: int) -> FrameEntry:
    if scan.empty:
        return step(e, default_dir)
    if scan.extremum is not None:
        return scan.extremum
    return UNDEFINED


def quad_frame(t: Triangulation, a: Arc) -> QuadFrame:
    if t.certificate.status is CertificateStatus.UNVERIFIED:
        raise TriangulationError("quad frame needs a certified or window-checked triangulation")
    u, v = a.a, a.b
    return QuadFrame(
        arc=a,
        u=u,
        v=v,
        u_left=_frame_entry(neighbor_scan(t, a, u, Side.LEFT), u, 1),
        u_right=_frame_entry(neighbor_scan(t, a, u, Side.RIGHT), u, -1),
        v_left=_frame_entry(neighbor_scan(t, a, v, Side.LEFT), v, 1),
        v_right=_frame_entry(neighbor_scan(t, a, v, Side.RIGHT), v, -1),
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
    if any(isinstance(e, _UndefinedType) for e in frame.entries()):
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


def _remove_arc(t: Triangulation, a: Arc) -> tuple:
    out = []
    removed = False
    for gen in t.generators:
        if isinstance(gen, Single):
            if gen.arc == a:
                removed = True
                continue
            out.append(gen)
            continue
        tpar = family_param_of(t.surface, gen, a)
        if tpar is None:
            out.append(gen)
            continue
        removed = True
        lo, hi = gen.domain.lo, gen.domain.hi
        for part in (IntRange(lo, tpar - 1), IntRange(tpar + 1, hi)):
            if part.is_empty:
                continue
            if part.is_bounded and part.lo == part.hi:
                out.append(Single(gen.arc_at(t.surface, part.lo)))
            else:
                out.append(Family(gen.e0, gen.e1, part))
    if not removed:
        raise TriangulationError(f"arc {format_arc(a)} is not in the triangulation")
    return tuple(out)


def flip(t: Triangulation, a: Arc) -> MutationResult:
    """Replace a mutable arc by the other diagonal of its quadrilateral."""
    ok, reason, frame = mutability_report(t, a)
    if not ok:
        witness = frame
        if reason == "NoExtremum":
            for e, side in ((a.a, Side.LEFT), (a.a, Side.RIGHT), (a.b, Side.LEFT), (a.b, Side.RIGHT)):
                scan = neighbor_scan(t, a, e, side)
                if not scan.empty and scan.extremum is None:
                    witness = scan
                    break
        raise MutabilityError(reason, witness)
    new_arc = Arc(frame.u_right, frame.v_right)
    gens = _remove_arc(t, a) + (Single(new_arc),)
    new_t = Triangulation(t.surface, gens, t.certificate)
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


_FAN_WIDTH_LIMIT = 5000


def right_module_generators(t: Triangulation, g: Arc) -> Union[list[Arc], NotFinitelyGenerated]:
    """Generators of the incoming morphisms from t into the shift of g.

    The arcs of t admitting a nonzero map to the shifted g split into fans.
    Every fan with an attained clockwise-extreme element contributes that
    element (the limit arc of the fan, in the accumulation-bounded case);
    an unbounded fan with no limit arc in t, or an unbounded run of arcs
    with no common endpoint, means no finite generating set exists.
    """
    if g.surface is not t.surface:
        raise MixedSurfaceError("query arc on the wrong surface")
    if t.certificate.status is not CertificateStatus.CERTIFIED_MAXIMAL:
        raise TriangulationError("module generators need a certified maximal triangulation")

    apex_candidates: dict[Point, set[Arc]] = defaultdict(set)
    loose: list[Arc] = []

    for gen in t.generators:
        if isinstance(gen, Single):
            if ext_case(gen.arc, g) is not ExtCase.NONE:
                loose.append(gen.arc)
            continue
        ranges = _merge_ranges(ext_param_ranges(gen, g))
        apex = gen.fixed_endpoint
        for r in ranges:
            if not r.is_bounded:
                if apex is None:
                    return NotFinitelyGenerated(gen, r, "unbounded support run with no common endpoint")
                # Morphisms between arcs of one fan run clockwise, i.e.
                # towards smaller partner positions, so only the
                # position-minimal end of the support needs to be attained.
                mov = gen.moving_endpoints[0]
                min_end_param = 1 if mov.stride < 0 else -1
                min_unbounded = (r.hi is None) if min_end_param > 0 else (r.lo is None)
                if min_unbounded:
                    lim = limit_of_family(t.surface, gen, end=min_end_param)
                    if (
                        lim.kind is not LimitKind.ARC
                        or not t.contains(lim.arc)
                        or ext_case(lim.arc, g) is ExtCase.NONE
                    ):
                        return NotFinitelyGenerated(gen, r, "fan support unbounded past any limit arc")
                    apex_candidates[apex].add(lim.arc)
                if r.lo is not None:
                    apex_candidates[apex].add(gen.arc_at(t.surface, r.lo))
                if r.hi is not None:
                    apex_candidates[apex].add(gen.arc_at(t.surface, r.hi))
            else:
                if not r.width_at_most(_FAN_WIDTH_LIMIT):
                    raise ResourceLimitError("fan support too wide to materialize")
                if apex is not None:
                    apex_candidates[apex].add(gen.arc_at(t.surface, r.lo))
                    apex_candidates[apex].add(gen.arc_at(t.surface, r.hi))
                else:
                    loose.extend(gen.arc_at(t.surface, tt) for tt in r.iterate())

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
    for _apex, cands in apex_candidates.items():
        ordered = sorted(cands, key=arc_key)
        if len(ordered) == 1:
            out.add(ordered[0])
            continue
        sinks = [
            c
            for c in ordered
            if all(o == c or hom_dim(o, c) == 1 for o in ordered)
        ]
        if sinks:
            out.add(sinks[0])
        else:
            out.update(ordered)
    return sorted(out, key=arc_key)
