"""Symbolic triangulations: builders, validation, scans, limits, leapfrogs."""

import dataclasses
import json
import random

import pytest

from infgon import triangulation
from infgon.limits import ResourceLimitError
from infgon.arcs import Arc, cross_transverse, format_arc, parse_arc
from infgon.surface import MixedSurfaceError, Point, Surface
from infgon.triangulation import (
    CERTIFIED_MAXIMAL,
    Certificate,
    CrossingError,
    DuplicateArcError,
    Family,
    IntRange,
    LeapfrogError,
    LimitKind,
    Moving,
    Side,
    Single,
    Triangulation,
    TriangulationError,
    Window,
    arc_crossing_in,
    build_fountain,
    build_zigzag_leapfrog,
    canonical_zigzag,
    detect_leapfrog,
    from_window_set,
    limit_of_family,
    neighbor_scan,
    reverse_arc,
    reverse_point,
    reverse_triangulation,
    triangulation_from_json,
    triangulation_to_json,
    validate_non_crossing,
    window_arcs,
    window_brute_force,
    window_check,
)
from infgon.triangulation import _missed_window_arc, _polygon_diagonal_sets

C1 = Surface(True, 1)
C2 = Surface(True, 2)


def fountain1():
    return build_fountain(C1, C1.point(1, 0))


def test_fountain_structure():
    t = fountain1()
    assert t.certificate == CERTIFIED_MAXIMAL
    assert validate_non_crossing(t).ok
    for text in ("1:0-1:2", "1:0-1:-17", "1:0-a1", "1:0-1:900"):
        assert t.contains(parse_arc(C1, text))
    for text in ("1:1-1:3", "1:1-a1"):
        assert not t.contains(parse_arc(C1, text))


def test_fountain_at_accumulation_base():
    t = build_fountain(C2, C2.accumulation(1))
    assert validate_non_crossing(t).ok
    assert t.contains(parse_arc(C2, "a1-1:7"))
    assert t.contains(parse_arc(C2, "a1-2:-3"))
    assert t.contains(parse_arc(C2, "a1-a2"))
    assert not t.contains(parse_arc(C2, "1:0-1:2"))


def test_validate_finds_crossing_witness():
    t = fountain1()
    extra = Triangulation(C1, t.generators + (Single(parse_arc(C1, "1:1-1:3")),))
    report = validate_non_crossing(extra)
    assert not report.ok
    w1, w2 = report.witness
    assert cross_transverse(w1, w2)


def _crossing_pair():
    return tuple(Single(parse_arc(C1, text)) for text in ("1:0-1:2", "1:1-1:3"))


@pytest.mark.parametrize(
    "certificate",
    [CERTIFIED_MAXIMAL, Certificate(Window.symmetric(C1, 3))],
    ids=["maximal", "window-checked"],
)
def test_certified_triangulation_may_not_cross(certificate):
    with pytest.raises(CrossingError, match="^arcs cross: 1:0-1:2 and 1:1-1:3$") as err:
        Triangulation(C1, _crossing_pair(), certificate)
    assert err.value.witness == tuple(g.arc for g in _crossing_pair())


def test_adding_a_certificate_checks_crossings():
    t = Triangulation(C1, _crossing_pair())
    assert not validate_non_crossing(t).ok
    with pytest.raises(CrossingError, match="arcs cross: 1:0-1:2 and 1:1-1:3"):
        dataclasses.replace(t, certificate=CERTIFIED_MAXIMAL)


def test_each_construction_checks_crossings_in_one_pass(monkeypatch):
    """Every construction, certified or not, searches each generator pair at
    most once and stops at the first crossing; a later validate_non_crossing
    reads the verdict without searching again."""
    w = Window.of_points([C1.point(1, i) for i in range(5)])
    built = (fountain1(), canonical_zigzag(), from_window_set(w, window_brute_force(w)[0]))
    certified = triangulation_to_json(fountain1())
    uncertified = {k: v for k, v in certified.items() if k != "certificate"}
    calls = []
    real = triangulation.crossing_witness
    monkeypatch.setattr(triangulation, "crossing_witness", lambda *args, **kw: calls.append(args) or real(*args, **kw))
    for build in (
        *(lambda t=t: dataclasses.replace(t) for t in built),
        fountain1,
        lambda: triangulation_from_json(certified),
        lambda: triangulation_from_json(uncertified),
    ):
        calls.clear()
        t = build()
        g = len(t.generators)
        assert 0 < len(calls) <= g * (g + 1) // 2
        calls.clear()
        assert validate_non_crossing(t).ok
        assert calls == []
    calls.clear()
    t = Triangulation(C1, _crossing_pair() + (Single(parse_arc(C1, "1:5-1:7")),))
    assert len(calls) == 1
    assert validate_non_crossing(t).witness == tuple(g.arc for g in _crossing_pair())
    assert len(calls) == 1


def test_duplicates_take_precedence_over_crossings():
    crossing_then_duplicate = _crossing_pair() + (Single(parse_arc(C1, "1:1-1:3")),)
    with pytest.raises(DuplicateArcError, match="^arc 1:1-1:3 appears in two generators$"):
        Triangulation(C1, crossing_then_duplicate, CERTIFIED_MAXIMAL)
    # generator 0 crosses itself and generator 1: the pair (0, 0) comes first
    ladder = Family(Moving(1, 0, 1), Moving(1, 2, 1), IntRange(0, 1))
    t = Triangulation(C1, (ladder, Single(parse_arc(C1, "1:-1-1:1"))))
    assert validate_non_crossing(t).witness == (parse_arc(C1, "1:0-1:2"), parse_arc(C1, "1:1-1:3"))
    # the same pairs the other way round: the pair (0, 1) comes first
    t = Triangulation(C1, (Single(parse_arc(C1, "1:-1-1:1")), ladder))
    assert validate_non_crossing(t).witness == (parse_arc(C1, "1:-1-1:1"), parse_arc(C1, "1:0-1:2"))


def test_duplicate_detection():
    fam = Family(C1.point(1, 0), Moving(1, 2, 1), IntRange(0, None))
    with pytest.raises(DuplicateArcError):
        Triangulation(C1, (fam, Single(parse_arc(C1, "1:0-1:2"))))


def test_one_family_presenting_an_arc_twice_is_refused():
    """1:0-1:2 is the instance at t = 0 and at t = 1; removing it would leave it in."""
    fam = Family(Moving(1, 0, 2), Moving(1, 2, -2), IntRange(0, 1))
    assert fam.arc_at(C1, 0) == fam.arc_at(C1, 1) == parse_arc(C1, "1:0-1:2")
    with pytest.raises(DuplicateArcError, match="arc 1:0-1:2 appears twice in one family"):
        Triangulation(C1, (fam,))
    # a family whose instances are distinct, and Singles, still build
    Triangulation(C1, (Family(Moving(1, 0, 2), Moving(1, 2, -2), IntRange(0, 0)), Single(parse_arc(C1, "1:5-1:7"))))


def test_family_degeneration_detection():
    with pytest.raises(TriangulationError):
        Triangulation(C1, (Family(C1.point(1, 0), Moving(1, -3, 1), IntRange(0, None)),))


def test_two_parallel_fans_disjoint_ranges():
    t = Triangulation(
        C1,
        (
            Family(C1.point(1, 0), Moving(1, 2, 1), IntRange(0, 5)),
            Family(C1.point(1, 20), Moving(1, 22, 1), IntRange(0, 5)),
        ),
    )
    assert validate_non_crossing(t).ok


def test_window_brute_force_counts():
    hexagon = Window.of_points([C1.point(1, i) for i in range(6)])
    assert len(window_brute_force(hexagon)) == 14
    square = Window.of_points([C1.point(1, i) for i in range(4)])
    assert len(window_brute_force(square)) == 2
    quad_acc = Window.of_points([C1.point(1, -1), C1.point(1, 0), C1.point(1, 1), C1.accumulation(1)])
    assert len(window_brute_force(quad_acc)) == 2
    with pytest.raises(ResourceLimitError):
        window_brute_force(Window.of_points([C1.point(1, i) for i in range(13)]))


def _fresh_arcs_brute_force(w):
    """Reference: the maximal sets with a new Arc built for every set."""
    m, pts = len(w.points), w.points
    mandatory = set()
    for i in range(m):
        try:
            mandatory.add(Arc(pts[i], pts[(i + 1) % m]))
        except ValueError:
            continue
    out = []
    for diag_set in _polygon_diagonal_sets(m):
        arcs = set(mandatory)
        arcs.update(Arc(pts[i], pts[j]) for i, j in diag_set)
        out.append(frozenset(arcs))
    return out


def test_window_brute_force_shares_its_arcs():
    w = Window.of_points([C1.point(1, i) for i in range(-4, 4)] + [C1.accumulation(1)])
    assert len(w.points) == 9
    sets = window_brute_force(w)
    assert len({id(a) for T in sets for a in T}) <= len(window_arcs(w))
    reference = _fresh_arcs_brute_force(w)
    assert sets == reference
    assert [list(T) for T in sets] == [list(T) for T in reference]


def test_a_window_needs_a_point_and_a_bound():
    for surface, bound in ((Surface(False, 1), -1), (C1, -2)):
        with pytest.raises(ValueError, match=f"^window bound {bound} is negative$"):
            Window.symmetric(surface, bound)
    for build in (lambda: Window(C1, ()), lambda: Window.of_points([])):
        with pytest.raises(ValueError, match="^window needs at least one point$"):
            build()
    assert Window.symmetric(C1, 0).points == (C1.point(1, 0), C1.accumulation(1))


def test_window_check_and_from_window_set():
    w = Window.of_points([C1.point(1, i) for i in range(5)])
    sets = window_brute_force(w)
    for T in sets:
        t = from_window_set(w, T)
        assert t.certificate == Certificate(w)
        assert window_check(t, w)
    incomplete = next(iter(sets)) - {parse_arc(C1, "1:0-1:4")}
    missed = "^window certificate fails: 1:0-1:4 is neither in the triangulation nor crossed by it$"
    with pytest.raises(TriangulationError, match=missed):
        from_window_set(w, incomplete)


def test_fountain_window_restriction_is_locally_maximal():
    t = fountain1()
    for bound in (2, 3):
        assert window_check(t, Window.symmetric(C1, bound))


def test_zigzag_leapfrog_detection():
    z = canonical_zigzag(C1)
    w = detect_leapfrog(z)
    assert w is not None
    assert set(w.curve_ends) == {"a1+", "a1-"}
    assert detect_leapfrog(fountain1()) is None


def test_finite_zigzag_is_rejected():
    alpha = Family(Moving(1, 0, 1), Moving(1, 0, -1), IntRange(1, 9))
    beta = Family(Moving(1, 1, 1), Moving(1, 0, -1), IntRange(1, 9))
    with pytest.raises(LeapfrogError):
        build_zigzag_leapfrog(C1, alpha, beta)


def test_single_rung_zigzag_has_no_chain():
    """Aligned families whose chain indices leave no rung (alpha at t and t+1)."""
    alpha = Family(Moving(1, 0, 1), Moving(1, 0, -1), IntRange(1, 1))
    beta = Family(Moving(1, 1, 1), Moving(1, 0, -1), IntRange(1, 1))
    assert detect_leapfrog(Triangulation(C1, (alpha, beta))) is None
    with pytest.raises(LeapfrogError, match="chain is finite"):
        build_zigzag_leapfrog(C1, alpha, beta)


def test_fountain_plus_finite_zigzag_is_not_a_leapfrog():
    # a finite chain of closing arcs inside one fountain triangle
    base = C2.point(1, 0)
    t = build_fountain(C2, base)
    assert detect_leapfrog(t) is None
    gens = list(t.generators) + [
        Single(parse_arc(C2, "2:0-2:2")),
        Single(parse_arc(C2, "2:2-2:4")),
        Single(parse_arc(C2, "2:0-2:3")),
    ]
    # not a triangulation of anything maximal, but a valid generator set
    t2 = Triangulation(C2, tuple(gens))
    assert detect_leapfrog(t2) is None


def test_scallop_chains_are_not_leapfrogs():
    # same-direction tip progressions: no curve crosses the whole chain
    alpha = Family(Moving(1, 0, 4), Moving(1, 2, 4), IntRange(0, None))
    beta = Family(Moving(1, 2, 4), Moving(1, 4, 4), IntRange(0, None))
    t = Triangulation(C1, (alpha, beta))
    assert validate_non_crossing(t).ok
    assert detect_leapfrog(t) is None
    with pytest.raises(LeapfrogError):
        build_zigzag_leapfrog(C1, alpha, beta)


def test_limit_of_family_examples():
    res = limit_of_family(C2, Family(C2.point(1, 0), Moving(1, 2, 1), IntRange(0, None)))
    assert res.kind is LimitKind.ARC and res.arc == parse_arc(C2, "1:0-a1")
    res = limit_of_family(C2, Family(C2.accumulation(1), Moving(2, 1, 1), IntRange(0, None)))
    assert res.kind is LimitKind.ARC and res.arc == parse_arc(C2, "a1-a2")
    res = limit_of_family(C1, Family(C1.accumulation(1), Moving(1, -1, -1), IntRange(0, None)))
    assert res.kind is LimitKind.ACCUMULATION_POINT and res.point == C1.accumulation(1)
    with pytest.raises(ValueError):
        limit_of_family(C1, Family(C1.point(1, 0), Moving(1, 2, 1), IntRange(0, 9)))


def test_neighbor_scan_fountain():
    t = fountain1()
    b = C1.point(1, 0)
    acc_arc = parse_arc(C1, "1:0-a1")
    scan = neighbor_scan(t, acc_arc, b, Side.LEFT)
    assert not scan.empty and scan.extremum is None
    assert scan.progressions and scan.progressions[0].position_range() == IntRange(2, None)
    a = parse_arc(C1, "1:0-1:5")
    scan = neighbor_scan(t, a, b, Side.LEFT)
    assert scan.extremum == C1.point(1, 4)
    positions = {p for pr in scan.progressions for p in range(pr.position_range().lo, pr.position_range().hi + 1)}
    assert positions == {2, 3, 4}
    scan = neighbor_scan(t, a, C1.point(1, 5), Side.LEFT)
    assert scan.empty and scan.extremum is None
    with pytest.raises(TriangulationError):
        neighbor_scan(t, parse_arc(C1, "1:1-1:3"), C1.point(1, 1), Side.LEFT)


def test_scan_of_an_arc_not_in_t_raises():
    """Scans decide membership from their own partner pass; it agrees with
    Triangulation.contains on every window arc, endpoint and side."""
    w = Window.of_points([C1.point(1, i) for i in range(-4, 4)] + [C1.accumulation(1)])
    cases = [
        (from_window_set(w, window_brute_force(w)[7]), w),
        (build_fountain(C2, C2.point(2, 1)), Window.symmetric(C2, 2)),
        (canonical_zigzag(C1), Window.symmetric(C1, 4)),
    ]
    for t, window in cases:
        missing = 0
        for a in window_arcs(window):
            for e in a.endpoints:
                for side in (Side.LEFT, Side.RIGHT):
                    if t.contains(a):
                        assert neighbor_scan(t, a, e, side).arc == a
                        continue
                    missing += 1
                    with pytest.raises(TriangulationError, match=f"^arc {format_arc(a)} is not in the triangulation$"):
                        neighbor_scan(t, a, e, side)
        assert missing
    foreign = parse_arc(C2, "1:0-1:2")
    with pytest.raises(TriangulationError, match="is not in the triangulation"):
        neighbor_scan(fountain1(), foreign, foreign.a, Side.LEFT)


def test_scan_extremum_arc_is_in_triangulation():
    t = build_fountain(C2, C2.point(2, 1))
    for arc_text, endpoint in (("2:1-2:5", "2:1"), ("2:1-a1", "2:1"), ("2:1-1:4", "2:1")):
        a = parse_arc(C2, arc_text)
        from infgon.surface import parse_point

        e = parse_point(C2, endpoint)
        for side in (Side.LEFT, Side.RIGHT):
            scan = neighbor_scan(t, a, e, side)
            if scan.extremum is not None:
                assert t.contains(Arc(e, scan.extremum))


def _reference_cases():
    """Certified and window-checked triangulations, each with the arcs to scan."""
    for n in (1, 2, 3):
        s = Surface(True, n)
        w = Window.symmetric(s, 3)
        for base in w.points:
            t = build_fountain(s, base)
            yield t, t.arcs_in_window(w)
    z = canonical_zigzag(C1)
    yield z, z.arcs_in_window(Window.symmetric(C1, 4))
    for s in (C2, Surface(False, 2)):
        w = Window.symmetric(s, 1)
        for arcs in window_brute_force(w):
            yield from_window_set(w, arcs), arcs


def test_right_scan_is_reversed_left_scan():
    """Right scans, read directly, equal left scans of the mirror image mapped back."""
    scans = 0
    for t, arcs in _reference_cases():
        n = t.surface.intervals
        rt = reverse_triangulation(t)
        for a in arcs:
            for e in a.endpoints:
                right = neighbor_scan(t, a, e, Side.RIGHT)
                left = neighbor_scan(rt, reverse_arc(a), reverse_point(e), Side.LEFT)
                assert right.singles == tuple(reverse_point(p) for p in left.singles)
                assert [(pr.interval, pr.base, pr.stride, pr.domain) for pr in right.progressions] == [
                    (n + 1 - pr.interval, -pr.base, -pr.stride, pr.domain) for pr in left.progressions
                ]
                assert right.extremum == (None if left.extremum is None else reverse_point(left.extremum))
                assert right.empty == left.empty
                scans += 1
    assert scans > 3000


def _missed_by_each_arc(t, w):
    """Reference: the first window arc that t neither holds nor crosses, one solver query per arc and generator."""
    return next((a for a in window_arcs(w) if not t.contains(a) and arc_crossing_in(t, a) is None), None)


def _random_endpoint(rng, s, moving):
    k = rng.randint(1, s.intervals)
    if moving:
        return Moving(k, rng.randint(-6, 6), rng.choice((-1, 1)) * rng.randint(1, 5))
    if s.completed and rng.random() < 0.25:
        return s.accumulation(k)
    return s.point(k, rng.randint(-7, 7))


def _random_generator(rng, s):
    if rng.random() < 0.3:
        return Single(Arc(_random_endpoint(rng, s, False), _random_endpoint(rng, s, False)))
    moving = rng.choice(((True, False), (False, True), (True, True)))
    lo, hi = rng.randint(-4, 2), rng.randint(2, 8)
    domain = rng.choice((IntRange(lo, hi), IntRange(lo, None), IntRange(None, hi), IntRange(None, None)))
    return Family(*(_random_endpoint(rng, s, m) for m in moving), domain)


def _random_triangulation(rng, s):
    """An uncertified triangulation of one to four generators, which may
    cross, or a fountain with at most one generator dropped."""
    if s.completed and rng.random() < 0.25:
        gens = build_fountain(s, _random_endpoint(rng, s, False)).generators
        drop = rng.randrange(len(gens) + 1)
        return Triangulation(s, gens[:drop] + gens[drop + 1:])
    while True:
        try:
            return Triangulation(s, tuple(_random_generator(rng, s) for _ in range(rng.randint(1, 4))))
        except ValueError:  # a degenerate family, a duplicate or adjacent single ends: draw again
            continue


def _random_window(rng, s):
    """A symmetric window, or points scattered near the bases, far beyond
    them (10^6 out), or on one interval only."""
    if rng.random() < 0.3:
        return Window.symmetric(s, rng.randint(0, 2))
    intervals = [rng.randint(1, s.intervals)] if rng.random() < 0.3 else range(1, s.intervals + 1)
    pool = [s.point(k, pos) for k in intervals for pos in (*range(-9, 10), -10**6, 10**6)]
    pool += [s.accumulation(k) for k in intervals if s.completed]
    return Window.of_points(rng.sample(pool, rng.randint(1, 9)))


def test_window_sweep_matches_each_arc_queried_alone():
    """The cell sweep names the same first missed window arc as one query per
    window arc and generator, on crossing and non-crossing generator sets,
    and on a 96-point window of the completed:3 fountain."""
    rng = random.Random(24)
    surfaces = [Surface(completed, n) for completed in (True, False) for n in (1, 2, 3)]
    missed = 0
    for _ in range(1000):
        s = rng.choice(surfaces)
        t, w = _random_triangulation(rng, s), _random_window(rng, s)
        got = _missed_window_arc(t, w)
        assert got == _missed_by_each_arc(t, w), (t, w)
        missed += got is not None
    assert 200 < missed < 900
    c3 = Surface(True, 3)
    fountain, w = build_fountain(c3, c3.point(2, 1)), Window.symmetric(c3, 15)
    assert len(w.points) == 96
    assert _missed_window_arc(fountain, w) is None
    dropped = Triangulation(c3, fountain.generators[:3] + fountain.generators[4:])
    assert _missed_window_arc(dropped, w) == _missed_by_each_arc(dropped, w) is not None


def test_window_check_rejects_another_surface():
    """A window on another surface is refused, even one without a window arc:
    a single point, or two adjacent points."""
    windows = (Window.symmetric(C2, 1), Window.of_points([C2.point(1, 0)]),
               Window.of_points([C2.point(1, 0), C2.point(1, 1)]))
    arc = parse_arc(C2, "1:0-2:0")
    # the fountain has Single generators, the zigzag only families
    for t in (fountain1(), canonical_zigzag(C1)):
        for w in windows:
            with pytest.raises(MixedSurfaceError):
                window_check(t, w)
            with pytest.raises(MixedSurfaceError):
                t.arcs_in_window(w)
        with pytest.raises(MixedSurfaceError):
            arc_crossing_in(t, arc)


def test_reversal_is_an_involution():
    for p in (C2.point(1, 5), C2.point(2, -3), C2.accumulation(1), C2.accumulation(2)):
        assert reverse_point(reverse_point(p)) == p
    t = build_fountain(C2, C2.point(1, 0))
    assert reverse_triangulation(reverse_triangulation(t)).generators == t.generators


def test_json_roundtrip():
    for t in (fountain1(), canonical_zigzag(C1), build_fountain(C2, C2.accumulation(2))):
        doc = triangulation_to_json(t)
        back = triangulation_from_json(json.loads(json.dumps(doc)))
        assert back.surface == t.surface
        assert back.generators == t.generators
        assert back.certificate == t.certificate


def test_json_format_matches_documented_shape():
    t = Triangulation(
        C1,
        (
            Single(parse_arc(C1, "1:0-1:2")),
            Family(C1.point(1, 0), Moving(1, 4, 1), IntRange(0, None)),
        ),
    )
    doc = triangulation_to_json(t)
    assert doc["surface"] == "completed:1"
    assert doc["generators"][0] == {"single": "1:0-1:2"}
    fam = doc["generators"][1]["family"]
    assert fam["e0"] == "1:0"
    assert fam["e1"] == {"interval": 1, "base": 4, "stride": 1}
    assert fam["domain"] == [0, None]
