import pytest
from hypothesis import given, settings

from conftest import all_window_arcs, surface_and_arcs
from infgon.arcs import (
    Arc,
    ArcClass,
    arc_key,
    canonical_lift,
    classify,
    cross_transverse,
    format_arc,
    lift_surface,
    parse_arc,
    shift_arc,
    squeeze,
)
from infgon.surface import Point, Surface, _orient, adjacent, step
from infgon.triangulation import Window, window_arcs

C1 = Surface(True, 1)
C2 = Surface(True, 2)
C3 = Surface(True, 3)
U1 = Surface(False, 1)
U2 = Surface(False, 2)
U4 = Surface(False, 4)


def brute_cross(g: Arc, d: Arc) -> bool:
    """Independent oracle: four distinct boundary points cross iff their
    owners alternate around the circle, read off from raw coordinates."""
    pts = {g.a, g.b, d.a, d.b}
    if len(pts) < 4:
        return False

    def raw_key(p):
        return (2 * p.interval, 0) if p.pos is None else (2 * p.interval - 1, p.pos)

    ring = sorted(pts, key=raw_key)
    owners = ["g" if p in (g.a, g.b) else "d" for p in ring]
    return owners in (["g", "d", "g", "d"], ["d", "g", "d", "g"])


def test_arc_validation():
    with pytest.raises(ValueError):
        Arc(C1.point(1, 0), C1.point(1, 0))
    with pytest.raises(ValueError):
        Arc(C1.point(1, 0), C1.point(1, 1))
    a = Arc(C1.point(1, 5), C1.point(1, 0))
    assert a.a == C1.point(1, 0)  # normalized endpoint order
    for surface in (C2, U2):
        # point pairs enumerated in circuit order come out in arc_key order
        arcs = all_window_arcs(surface, 3)
        assert sorted(reversed(arcs), key=arc_key) == arcs


def test_cross_examples():
    assert cross_transverse(parse_arc(C2, "1:0-2:0"), parse_arc(C2, "1:1-2:1"))
    assert not cross_transverse(parse_arc(C1, "1:0-1:5"), parse_arc(C1, "1:1-1:3"))
    g, d = parse_arc(C2, "1:0-a1"), parse_arc(C2, "1:2-2:0")
    assert cross_transverse(g, d)
    assert brute_cross(g, d)


def test_shift_examples():
    assert shift_arc(parse_arc(C1, "1:0-1:5"), 1) == parse_arc(C1, "1:1-1:6")
    assert shift_arc(parse_arc(C1, "1:0-a1"), 1) == parse_arc(C1, "1:1-a1")
    assert shift_arc(parse_arc(C2, "a1-a2"), 1) == parse_arc(C2, "a1-a2")


def test_squeeze_examples():
    assert squeeze(parse_arc(U4, "1:5-3:2")) == parse_arc(C2, "1:5-2:2")
    assert squeeze(parse_arc(U2, "1:0-2:7")) == parse_arc(C1, "1:0-a1")
    assert squeeze(parse_arc(U4, "2:0-2:9")) is None
    with pytest.raises(ValueError):
        squeeze(parse_arc(Surface(False, 3), "1:0-2:0"))


def test_canonical_lift_examples():
    assert canonical_lift(parse_arc(C2, "1:5-2:2")) == parse_arc(U4, "1:5-3:2")
    assert canonical_lift(parse_arc(C1, "1:0-a1")) == parse_arc(U2, "1:0-2:0")
    assert canonical_lift(parse_arc(C2, "a1-a2")) == parse_arc(U4, "2:0-4:0")


def test_classify_examples():
    assert classify(parse_arc(U4, "2:0-2:5")) is ArcClass.COLLAPSING
    assert classify(parse_arc(U4, "1:0-3:2")) is ArcClass.PERSISTENT
    assert classify(parse_arc(U4, "2:0-4:1")) is ArcClass.MIXED
    with pytest.raises(ValueError):
        classify(parse_arc(Surface(False, 3), "1:0-3:0"))


@given(surface_and_arcs(2))
@settings(max_examples=150)
def test_cross_matches_brute_force_and_is_symmetric(data):
    _, (g, d) = data
    assert cross_transverse(g, d) == brute_cross(g, d)
    assert cross_transverse(g, d) == cross_transverse(d, g)
    assert not cross_transverse(g, g)


@given(surface_and_arcs(2))
@settings(max_examples=100)
def test_cross_is_shift_invariant(data):
    _, (g, d) = data
    assert cross_transverse(g, d) == cross_transverse(shift_arc(g, 1), shift_arc(d, 1))


@given(surface_and_arcs(1, completed_only=True))
@settings(max_examples=100)
def test_squeeze_of_lift_is_identity(data):
    _, (g,) = data
    assert squeeze(canonical_lift(g)) == g


@given(surface_and_arcs(1))
@settings(max_examples=100)
def test_classify_collapsing_iff_squeeze_collapses(data):
    surface, (g,) = data
    if surface.completed or surface.intervals % 2:
        return
    collapsed = squeeze(g) is None
    assert (classify(g) is ArcClass.COLLAPSING) == collapsed


def test_crossing_against_persistent_is_lift_invariant():
    # two lifts of the same completed arc cross the same persistent arcs
    import random

    rng = random.Random(7)
    target = Surface(False, 4)
    for _ in range(200):
        k = rng.randint(1, 2)
        g_c = Arc(Point(Surface(True, 2), k, rng.randint(-5, 5)), Point(Surface(True, 2), rng.randint(1, 2), None))
        lift1 = canonical_lift(g_c)

        def lift_with(offset):
            def lift_pt(p):
                if p.pos is None:
                    return Point(target, 2 * p.interval, offset)
                return Point(target, 2 * p.interval - 1, p.pos)

            return Arc(lift_pt(g_c.a), lift_pt(g_c.b))

        lift2 = lift_with(rng.randint(-9, 9))
        p1 = Point(target, 2 * rng.randint(0, 1) + 1, rng.randint(-6, 6))
        p2 = Point(target, 2 * rng.randint(0, 1) + 1, rng.randint(-6, 6))
        try:
            alpha = Arc(p1, p2)
        except ValueError:
            continue
        assert cross_transverse(lift1, alpha) == cross_transverse(lift2, alpha)


def test_arc_roundtrip():
    for text in ("1:0-2:3", "1:0-a1", "1:-5-a2"):
        assert format_arc(parse_arc(C2, text)) in (text, "-".join(reversed(text.rsplit("-", 1))))
    assert parse_arc(C2, "a1-1:0") == parse_arc(C2, "1:0-a1")
    with pytest.raises(ValueError):
        parse_arc(C2, "1:0")


def test_arcs_copy_and_pickle_through_their_constructor():
    import copy
    import pickle

    for text in ("1:0-2:3", "1:0-a1", "a1-a2"):
        g = parse_arc(C2, text)
        for back in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert back == g and hash(back) == hash(g) and (back.ka, back.kb) == (g.ka, g.kb)
            assert back.surface is g.surface


def test_key_primitives_match_their_definitions():
    """Crossing, arc order and adjacency read stored keys and positions; check
    them against their definitions on points, over whole windows."""
    for surface in (C1, C2, C3, U2):
        w = Window.symmetric(surface, 3)
        arcs = window_arcs(w)
        for g in arcs:
            x, y = g.a.circuit_key(), g.b.circuit_key()
            assert arc_key(g) == (x, y)
            for d in arcs:
                u, v = d.a.circuit_key(), d.b.circuit_key()
                distinct = len({g.a, g.b, d.a, d.b}) == 4
                interleave = distinct and _orient(x, u, y) != _orient(x, v, y)
                assert cross_transverse(g, d) == interleave
        for p in w.points:
            for q in w.points:
                assert adjacent(p, q) == (p != q and (step(p, 1) == q or step(q, 1) == p))


def test_trusted_shift_and_lift_match_the_validating_constructor():
    """shift_arc and canonical_lift build arcs without validating them; they
    must build exactly what Arc(p, q) builds from the moved endpoints."""

    def same(got: Arc, want: Arc) -> None:
        assert (got.a, got.b, got.ka, got.kb) == (want.a, want.b, want.ka, want.kb)
        assert got.surface is want.surface and hash(got) == hash(want) and got == want

    def steps(p: Point, k: int) -> Point:
        for _ in range(abs(k)):
            p = step(p, 1 if k > 0 else -1)
        return p

    def lift(p: Point) -> Point:
        target = lift_surface(p.surface)
        if p.pos is None:
            return Point(target, 2 * p.interval, 0)
        return Point(target, 2 * p.interval - 1, p.pos)

    for surface in (C1, C2, C3, U2):
        for g in window_arcs(Window.symmetric(surface, 3)):
            for k in range(-3, 4):
                same(shift_arc(g, k), Arc(steps(g.a, k), steps(g.b, k)))
            if surface.completed:
                same(canonical_lift(g), Arc(lift(g.a), lift(g.b)))


def test_regular_hashes_are_tuple_hashes():
    """Points and arcs away from accumulation points hash as plain tuples."""
    for surface in (C2, U2):
        for g in window_arcs(Window.symmetric(surface, 2, include_accumulation=False)):
            ta, tb = tuple(g.a), tuple(g.b)
            assert hash(g.a) == hash(ta) and hash(g) == hash((ta, tb))
