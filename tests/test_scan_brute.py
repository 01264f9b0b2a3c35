"""Brute-force cross-checks of boundary segments and neighbour scans."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import all_window_points, arcs_on, surface_and_points
from infgon.homs import BoundaryInterval, open_interval_segments
from infgon.surface import Point, Surface, cyclic_ordered
from infgon.triangulation import Arc, Side, Window, build_fountain, canonical_zigzag, neighbor_scan

C1 = Surface(True, 1)
C2 = Surface(True, 2)


def _in_segments(segs, p: Point) -> bool:
    for seg in segs:
        if seg[0] == "acc":
            if p.pos is None and p.interval == seg[1]:
                return True
        else:
            _, k, lo, hi = seg
            if p.pos is not None and p.interval == k:
                if (lo is None or p.pos >= lo) and (hi is None or p.pos <= hi):
                    return True
    return False


def _surface_slots(surface: Surface) -> list[int]:
    if surface.completed:
        return list(range(1, 2 * surface.intervals + 1))
    return list(range(1, 2 * surface.intervals, 2))


def _segments(x: Point, y: Point, closed: bool) -> list[tuple]:
    """Reference route: the interval from x to y listed piece by piece, one
    piece per marked interval or accumulation point met, closed or open.

    It shares no code with ``BoundaryInterval`` or ``open_interval_segments``.
    """
    surface = x.surface
    sx, px = x.circuit_key()
    sy, py = y.circuit_key()
    out: list[tuple] = []
    inset = 0 if closed else 1

    if x == y:
        if x.pos is None:
            return [("acc", x.interval)]
        return [("run", x.interval, x.pos, x.pos)]

    def head() -> None:
        if x.pos is None:
            if closed:
                out.append(("acc", x.interval))
        else:
            out.append(("run", x.interval, px + inset, None))

    def tail() -> None:
        if y.pos is None:
            if closed:
                out.append(("acc", y.interval))
        else:
            out.append(("run", y.interval, None, py - inset))

    if sx == sy and px < py:
        # Same accumulation slot would force x == y, so both points are regular.
        lo, hi = px + inset, py - inset
        return [("run", x.interval, lo, hi)] if lo <= hi else []

    # With sx == sy and px > py the interval wraps nearly the whole circle: i == j below.
    head()
    slots = _surface_slots(surface)
    i, j = slots.index(sx), slots.index(sy)
    middle = slots[i + 1 : j] if i < j else slots[i + 1 :] + slots[:j]
    for s in middle:
        out.append(("acc", s // 2) if s % 2 == 0 else ("run", (s + 1) // 2, None, None))
    tail()
    return [seg for seg in out if seg[0] == "acc" or seg[2] is None or seg[3] is None or seg[2] <= seg[3]]


@given(surface_and_points(3))
@settings(max_examples=300)
def test_closed_interval_segments_match_cyclic_order(data):
    surface, (a, b, w) = data
    interval = BoundaryInterval(a, b)
    direct = interval.contains(w)
    assert direct == _in_segments(_segments(a, b, True), w)
    # and both agree with the raw cyclic-order definition
    if a == b:
        assert direct == (w == a)
    else:
        expected = w == a or w == b or (w not in (a, b) and cyclic_ordered(a, [w, b]))
        assert direct == expected


def _in_runs(runs: list, p: Point) -> bool:
    return p.pos is not None and any((lo is None or p.pos >= lo) and (hi is None or p.pos <= hi) for lo, hi in runs)


@given(surface_and_points(2))
@settings(max_examples=300)
def test_runs_group_the_decomposition_by_interval(data):
    """``runs_on(k)`` lists the reference decomposition's runs on interval k,
    in order, and holds exactly the regular window points ``contains`` holds."""
    surface, (a, b) = data
    interval = BoundaryInterval(a, b)
    segs = _segments(a, b, True)
    for k in range(1, surface.intervals + 1):
        assert interval.runs_on(k) == [(seg[2], seg[3]) for seg in segs if seg[0] == "run" and seg[1] == k]
    for w in all_window_points(surface, 10):
        runs = interval.runs_on(w.interval)
        assert _in_runs(runs, w) == (w.pos is not None and interval.contains(w)), w


@given(surface_and_points(3))
@settings(max_examples=300)
def test_open_interval_segments_match_cyclic_order(data):
    surface, (a, b, w) = data
    if a == b:
        return
    segs = open_interval_segments(a, b)
    assert segs == _segments(a, b, False)
    got = _in_segments(segs, w)
    expected = w not in (a, b) and cyclic_ordered(a, [w, b])
    assert got == expected


def _brute_scan_points(t, a: Arc, endpoint: Point, side: Side, bound: int):
    other = a.other_endpoint(endpoint)
    out = []
    for w in all_window_points(t.surface, bound):
        if w in (endpoint, other):
            continue
        if side is Side.LEFT:
            inside = cyclic_ordered(endpoint, [w, other]) and w != other
        else:
            inside = cyclic_ordered(other, [w, endpoint]) and w != endpoint
        if not inside:
            continue
        try:
            arc = Arc(endpoint, w)
        except ValueError:
            continue
        if t.contains(arc):
            out.append(w)
    return sorted(out, key=Point.circuit_key)


def _scan_points_within(scan, bound: int):
    pts = [p for p in scan.singles if p.pos is None or abs(p.pos) <= bound]
    for pr in scan.progressions:
        r = pr.position_range()
        lo = -bound if r.lo is None else max(r.lo, -bound)
        hi = bound if r.hi is None else min(r.hi, bound)
        for pos in range(lo, hi + 1):
            if (pos - pr.base) % pr.stride == 0:
                pts.append(Point(scan.endpoint.surface, pr.interval, pos))
    return sorted(set(pts), key=Point.circuit_key)


def test_neighbor_scans_match_brute_force():
    cases = [
        (build_fountain(C1, C1.point(1, 0)), "1:0", ["1:0-1:5", "1:0-a1", "1:0-1:-3"]),
        (build_fountain(C2, C2.accumulation(1)), "a1", ["a1-1:4", "a1-2:-2", "a1-a2"]),
        (canonical_zigzag(C1), None, ["1:2-1:-1", "1:3-1:-3"]),
    ]
    from infgon.arcs import parse_arc
    from infgon.surface import parse_point

    bound = 9
    for t, base_text, arc_texts in cases:
        for text in arc_texts:
            a = parse_arc(t.surface, text)
            for endpoint in a.endpoints:
                for side in (Side.LEFT, Side.RIGHT):
                    scan = neighbor_scan(t, a, endpoint, side)
                    got = _scan_points_within(scan, bound)
                    expected = _brute_scan_points(t, a, endpoint, side, bound)
                    assert got == expected, (text, endpoint, side)


def _cut_sorted(points, base: Point):
    bkey = base.circuit_key()

    def key(p: Point):
        k = p.circuit_key()
        return (0 if k > bkey else 1, k)

    return sorted(points, key=key)


def test_scan_extremum_matches_brute_force_when_bounded():
    t = build_fountain(C2, C2.point(2, 1))
    from infgon.arcs import parse_arc

    a = parse_arc(t.surface, "2:1-2:6")
    u, v = C2.point(2, 1), C2.point(2, 6)
    scan = neighbor_scan(t, a, u, Side.LEFT)
    brute = _cut_sorted(_brute_scan_points(t, a, u, Side.LEFT, 12), u)
    assert scan.extremum == brute[-1] == C2.point(2, 5)
    scan = neighbor_scan(t, a, u, Side.RIGHT)
    brute = _cut_sorted(_brute_scan_points(t, a, u, Side.RIGHT, 12), v)
    assert scan.extremum == brute[0] == C2.point(2, 7)


# --- differential check against the generator-walking scan --------------------
#
# The reference route below is the scan as it stood before the endpoint index:
# it walks every generator for the partners and filters them segment by
# segment.  It is kept verbatim and uses no helper of the indexed scan.

from typing import Optional

from infgon.arcs import arc_key, format_arc
from infgon.triangulation import (
    Certificate,
    Family,
    IntRange,
    Moving,
    NeighborScan,
    Progression,
    Single,
    Triangulation,
    TriangulationError,
    window_arcs,
    window_brute_force,
)
from test_symbolic_brute import bounded_families, materialize


def _reference_partners(t: Triangulation, e: Point) -> tuple[list[Point], list[Progression]]:
    singles: list[Point] = []
    progs: list[Progression] = []
    for gen in t.generators:
        if isinstance(gen, Single):
            if gen.arc.has_endpoint(e):
                singles.append(gen.arc.other_endpoint(e))
            continue
        for this, other in ((gen.e0, gen.e1), (gen.e1, gen.e0)):
            if isinstance(this, Point):
                if this == e:
                    assert isinstance(other, Moving)
                    progs.append(Progression(other.interval, other.base, other.stride, gen.domain))
            else:
                if e.pos is not None and e.interval == this.interval:
                    tpar = this.param_for_pos(e.pos)
                    if tpar is not None and gen.domain.contains(tpar):
                        if isinstance(other, Moving):
                            singles.append(Point(e.surface, other.interval, other.pos_at(tpar)))
                        else:
                            singles.append(other)
    return singles, progs


def _reference_scan(t: Triangulation, a: Arc, endpoint: Point, side: Side) -> NeighborScan:
    if not a.has_endpoint(endpoint):
        raise ValueError("scan endpoint must belong to the arc")
    other = a.other_endpoint(endpoint)
    raw_singles, raw_progs = _reference_partners(t, endpoint) if a.surface is t.surface else ([], [])
    # a is in t exactly when other is one of the partners at endpoint.
    if other not in raw_singles and not (
        other.pos is not None
        and any(pr.interval == other.interval and pr.clip_positions(other.pos, other.pos) is not None
                for pr in raw_progs)
    ):
        raise TriangulationError(f"arc {format_arc(a)} is not in the triangulation")
    left = side is Side.LEFT
    segs = open_interval_segments(endpoint, other) if left else open_interval_segments(other, endpoint)[::-1]

    kept_singles: list[Point] = []
    kept_progs: list[Progression] = []
    per_seg: list[tuple[list[int], list[Progression], Optional[Point]]] = []
    for seg in segs:
        if seg[0] == "acc":
            acc = Point(t.surface, seg[1], None)
            hit = acc if acc in raw_singles else None
            if hit is not None:
                kept_singles.append(hit)
            per_seg.append(([], [], hit))
            continue
        _, k, lo, hi = seg
        poss = [p.pos for p in raw_singles if p.pos is not None and p.interval == k
                and (lo is None or p.pos >= lo) and (hi is None or p.pos <= hi)]
        clipped = [pr.clip_positions(lo, hi) for pr in raw_progs if pr.interval == k]
        clipped = [c for c in clipped if c is not None]
        kept_singles.extend(Point(t.surface, k, p) for p in poss)
        kept_progs.extend(clipped)
        per_seg.append((poss, clipped, None))

    extremum: Optional[Point] = None
    for seg, (poss, clipped, acc_hit) in zip(reversed(segs), reversed(per_seg)):
        if acc_hit is not None:
            extremum = acc_hit
            break
        if not poss and not clipped:
            continue
        bounds = list(poss)
        for pr in clipped:
            r = pr.position_range()
            bound = r.hi if left else r.lo
            if bound is None:
                break  # the progression runs on towards o: no extremum
            bounds.append(bound)
        else:
            extremum = Point(t.surface, seg[1], max(bounds) if left else min(bounds))
        break

    empty = not kept_singles and not kept_progs
    return NeighborScan(a, endpoint, side, tuple(kept_singles), tuple(kept_progs), extremum, empty)


def _outcome(scan, *args):
    try:
        return scan(*args)
    except (ValueError, TriangulationError) as exc:
        return (type(exc), str(exc))


def _fields(result):
    if isinstance(result, NeighborScan):
        return tuple(getattr(result, f) for f in NeighborScan._fields)
    return result


def _assert_scans_agree(t: Triangulation, arcs, endpoints=None) -> int:
    """Both routes on every given arc, at each endpoint and at a point off the arc, on both sides."""
    count = 0
    for a in arcs:
        for endpoint in (*a.endpoints, *(endpoints or ())):
            for side in (Side.LEFT, Side.RIGHT):
                got = _outcome(neighbor_scan, t, a, endpoint, side)
                expected = _outcome(_reference_scan, t, a, endpoint, side)
                assert _fields(got) == _fields(expected), (format_arc(a), endpoint, side)
                count += isinstance(got, NeighborScan)
    return count


def _contiguous_window(surface: Surface, size: int, offset: int) -> Window:
    """``size`` regular points split evenly over the intervals, plus every accumulation point."""
    n = surface.intervals
    pts = []
    for k in range(1, n + 1):
        share = size // n + (k <= size % n)
        pts.extend(Point(surface, k, offset + i) for i in range(share))
        if surface.completed:
            pts.append(Point(surface, k, None))
    return Window.of_points(pts)


def test_indexed_scan_matches_the_reference_on_shuffled_window_sets():
    import random

    rng = random.Random(11)
    scans = 0
    for completed, n, size in ((True, 1, 6), (True, 2, 5), (True, 3, 4), (False, 1, 7), (False, 2, 7),
                               (False, 3, 7), (False, 4, 8)):
        w = _contiguous_window(Surface(completed, n), size, rng.randrange(-5, 5))
        arcs = window_arcs(w)
        stray = (w.points[0], w.points[len(w.points) // 2])
        sets = window_brute_force(w)
        for T in rng.sample(sets, min(len(sets), 40)):
            gens = [Single(g) for g in T]
            rng.shuffle(gens)
            t = Triangulation(w.surface, tuple(gens), Certificate(w))
            scans += _assert_scans_agree(t, arcs, stray)
    assert scans > 8000


def _split_and_shuffle(t: Triangulation, rng) -> Triangulation:
    """The same arcs in shuffled generator order, with two instances of each
    family given as single arcs: a single then shares its run with the rest
    of its family."""
    gens = []
    for g in t.generators:
        if isinstance(g, Single):
            gens.append(g)
            continue
        d = g.domain
        c = d.lo if d.lo is not None else (d.hi - 1 if d.hi is not None else 0)
        gens.extend(Single(g.arc_at(t.surface, u)) for u in (c, c + 1) if d.contains(u))
        for piece in (IntRange(None, c - 1), IntRange(c + 2, None)):
            if not d.intersect(piece).is_empty:
                gens.append(Family(g.e0, g.e1, d.intersect(piece)))
    rng.shuffle(gens)
    return Triangulation(t.surface, tuple(gens), t.certificate)


def test_indexed_scan_matches_the_reference_on_fountains_and_the_zigzag():
    import random

    rng = random.Random(5)
    scans = 0
    for n in (1, 2, 3):
        s = Surface(True, n)
        arcs = window_arcs(Window.symmetric(s, 3))
        bases = (s.point(1, 0), s.point(n, 2), s.accumulation(1), s.accumulation(n))
        for base in bases:
            fountain = build_fountain(s, base)
            for t in (fountain, _split_and_shuffle(fountain, rng)):
                scans += _assert_scans_agree(t, arcs, (s.point(1, 1),))
    zigzag = canonical_zigzag(C1)
    for t in (zigzag, _split_and_shuffle(zigzag, rng)):
        scans += _assert_scans_agree(t, window_arcs(Window.symmetric(C1, 5)), (C1.point(1, 0),))
    assert scans > 1400


@given(st.data())
@settings(max_examples=200)
def test_indexed_scan_matches_the_reference_on_mixed_generators(data):
    surface = data.draw(st.sampled_from([C1, C2, Surface(False, 2)]))
    gens = [data.draw(bounded_families(surface, singles=True)) for _ in range(data.draw(st.integers(1, 5)))]
    try:
        t = Triangulation(surface, tuple(gens))
    except TriangulationError:
        assume(False)
    probe = data.draw(arcs_on(surface, 6))
    arcs = {a for g in gens for a in materialize(surface, g)} | {probe}
    _assert_scans_agree(t, sorted(arcs, key=arc_key), (probe.a,))


def test_indexed_scan_matches_the_reference_on_larger_fountains():
    """Fountains on four to six intervals, at regular and accumulation bases:
    arcs from the base, and arcs from points near it to every accumulation
    point, the far ones included."""
    import random

    rng = random.Random(7)
    scans = 0
    for n in (4, 5, 6):
        s = Surface(True, n)
        near = [s.point(k, i) for k in (1, 2, n) for i in (-2, 1, 3)]
        for base in (s.point(1, 0), s.point(n // 2 + 1, -1), s.accumulation(1), s.accumulation(n // 2)):
            fountain = build_fountain(s, base)
            targets = [p for p in Window.symmetric(s, 2).points if p != base]
            arcs = {Arc(base, p) for p in targets if p.pos is None or base.pos is None or p.interval != base.interval
                    or abs(p.pos - base.pos) > 1}
            arcs |= {Arc(p, s.accumulation(k)) for p in near for k in range(1, n + 1)}
            for t in (fountain, _split_and_shuffle(fountain, rng)):
                scans += _assert_scans_agree(t, sorted(arcs, key=arc_key), (s.point(1, 1),))
    assert scans > 2500


def test_indexed_scan_matches_the_reference_on_one_family_on_its_own_interval():
    """One family fixed at e whose moving end runs on e's interval, on
    uncompleted surfaces: its progression is split at e, and the run holding
    o ends next to it on either side of e."""
    scans = 0
    for n in (1, 2, 3, 5):
        s = Surface(False, n)
        for k in sorted({1, n}):
            e = s.point(k, 0)
            for base, stride, domain in ((2, 1, IntRange(0, None)), (-2, -1, IntRange(0, None)), (2, 4, IntRange(None, None)),
                                         (-3, 5, IntRange(-2, 3)), (2, -4, IntRange(-3, None)), (7, -5, IntRange(None, 2))):
                for fam in (Family(e, Moving(k, base, stride), domain), Family(Moving(k, base, stride), e, domain)):
                    t = Triangulation(s, (fam,))
                    points = [s.point(j, i) for j in sorted({1, k, n}) for i in range(-9, 10)]
                    arcs = {Arc(e, p) for p in points if p.interval != k or abs(p.pos) > 1}
                    arcs |= {Arc(p, q) for p in points[::7] for q in points[3::11] if p.interval != q.interval}
                    scans += _assert_scans_agree(t, sorted(arcs, key=arc_key), (s.point(k, 1),))
    assert scans > 1500
