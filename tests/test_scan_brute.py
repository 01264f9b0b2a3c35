"""Brute-force cross-checks of boundary segments and neighbour scans."""

from hypothesis import given, settings

from conftest import all_window_points, surface_and_points
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


@given(surface_and_points(3))
@settings(max_examples=300)
def test_closed_interval_segments_match_cyclic_order(data):
    surface, (a, b, w) = data
    interval = BoundaryInterval(a, b)
    direct = interval.contains(w)
    assert direct == _in_segments(interval.segments(), w)
    # and both agree with the raw cyclic-order definition
    if a == b:
        assert direct == (w == a)
    else:
        expected = w == a or w == b or (w not in (a, b) and cyclic_ordered(a, [w, b]))
        assert direct == expected


def _position_ranges(interval: BoundaryInterval, k: int) -> list:
    """Reference route: the position ranges of interval k, filtered from the decomposition."""
    return [(seg[2], seg[3]) for seg in interval.segments() if seg[0] == "run" and seg[1] == k]


@given(surface_and_points(2))
@settings(max_examples=300)
def test_runs_group_the_decomposition_by_interval(data):
    surface, (a, b) = data
    interval = BoundaryInterval(a, b)
    runs = interval.runs()
    assert set(runs) <= set(range(1, surface.intervals + 1))
    for k in range(1, surface.intervals + 1):
        assert runs.get(k, []) == _position_ranges(interval, k)


@given(surface_and_points(3))
@settings(max_examples=300)
def test_open_interval_segments_match_cyclic_order(data):
    surface, (a, b, w) = data
    if a == b:
        return
    segs = open_interval_segments(a, b)
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
