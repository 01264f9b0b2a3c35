"""Morphism dimensions, extension cases, sweeps and factorization."""

import pytest
from hypothesis import given, settings

from conftest import all_window_arcs, surface_and_arcs
from infgon.arcs import Arc, ArcClass, canonical_lift, classify, cross_transverse, parse_arc, shift_arc
from infgon.homs import (
    ExtCase,
    exchange_triangles,
    ext_ambient_dim,
    ext_case,
    ext_dim,
    factors_over,
    hom_dim,
    sweep_contains,
    sweep_intervals,
)
from infgon.surface import Point, Surface, _orient

C1 = Surface(True, 1)
C2 = Surface(True, 2)
U1 = Surface(False, 1)
U2 = Surface(False, 2)
U4 = Surface(False, 4)


def test_hom_uncompleted_examples():
    g = parse_arc(U1, "1:0-1:5")
    assert hom_dim(g, g) == 1  # identity
    assert hom_dim(g, parse_arc(U1, "1:2-1:7")) == 1
    assert hom_dim(parse_arc(U1, "1:0-1:3"), parse_arc(U1, "1:10-1:13")) == 0


def test_ext_case_examples():
    assert ext_case(parse_arc(C2, "1:0-a1"), parse_arc(C2, "a1-2:5")) is ExtCase.CLOCKWISE_AT_ACCUMULATION
    assert ext_case(parse_arc(C2, "a1-2:5"), parse_arc(C2, "1:0-a1")) is ExtCase.NONE
    both = parse_arc(C2, "a1-a2")
    assert ext_case(both, both) is ExtCase.DOUBLE_ACCUMULATION_SELF
    assert ext_case(parse_arc(C2, "1:0-2:0"), parse_arc(C2, "1:1-2:1")) is ExtCase.CROSSING


def test_hom_completed_examples():
    g = parse_arc(C1, "1:0-a1")
    assert hom_dim(g, g) == 1
    assert hom_dim(g, shift_arc(g, 1)) == 0
    both = parse_arc(C2, "a1-a2")
    assert hom_dim(both, both) == 1  # the shift fixes this arc


def _point_level_ext_case(g: Arc, d: Arc) -> ExtCase:
    """The reference route: ext_case decided on the endpoints, not on the stored keys."""
    if cross_transverse(g, d):
        return ExtCase.CROSSING
    if g == d:
        if g.a.pos is None and g.b.pos is None:
            return ExtCase.DOUBLE_ACCUMULATION_SELF
        return ExtCase.NONE
    shared = [p for p in g.endpoints if d.has_endpoint(p)]
    if len(shared) == 1 and shared[0].pos is None:
        p = shared[0]
        a = g.other_endpoint(p)
        b = d.other_endpoint(p)
        if a != b and _orient(p.circuit_key(), b.circuit_key(), a.circuit_key()):
            return ExtCase.CLOCKWISE_AT_ACCUMULATION
    return ExtCase.NONE


_BOUND3_SURFACES = [Surface(True, n) for n in (1, 2, 3)] + [Surface(False, n) for n in (1, 2, 4)]


@pytest.mark.parametrize("surface", _BOUND3_SURFACES, ids=Surface.describe)
def test_key_level_hom_and_ext_match_their_definitions(surface):
    """hom_dim is its definition through the predecessor shift, and ext_case
    answers like the point-level route, on every ordered pair of the window."""
    arcs = all_window_arcs(surface, 3)
    for g in arcs:
        for d in arcs:
            shifted = shift_arc(d, -1)
            if surface.completed:
                assert ext_case(g, d) is _point_level_ext_case(g, d), (g, d)
                assert hom_dim(g, d) == (ext_case(g, shifted) is not ExtCase.NONE), (g, d)
            else:
                assert hom_dim(g, d) == cross_transverse(g, shifted), (g, d)


def test_hom_dim_builds_nothing(monkeypatch):
    arcs = all_window_arcs(C2, 3) + all_window_arcs(U2, 3)

    def refuse(*args, **kw):
        raise AssertionError("hom_dim built an arc or a point")

    monkeypatch.setattr(Arc, "__init__", refuse)
    monkeypatch.setattr(Arc, "_trusted", refuse)
    monkeypatch.setattr(Point, "_make", refuse)
    monkeypatch.setattr(Point, "__new__", refuse)
    answers = [hom_dim(g, d) for g in arcs for d in arcs if g.surface is d.surface]
    assert 0 < sum(answers) < len(answers)


def test_ext_examples():
    assert ext_dim(parse_arc(C2, "1:0-2:0"), parse_arc(C2, "1:1-2:1")) == 1
    both = parse_arc(C2, "a1-a2")
    assert ext_dim(both, both) == 0
    assert hom_dim(both, shift_arc(both, 1)) == 1  # ambient space does not vanish
    assert ext_dim(parse_arc(C2, "1:0-a1"), parse_arc(C2, "a1-2:5")) == 0


def test_sweep_examples():
    def pairs(sweep):
        return sorted(((i.start, i.end) for i in sweep), key=lambda t: t[0].circuit_key())

    g, d = parse_arc(U1, "1:0-1:5"), parse_arc(U1, "1:2-1:7")
    assert pairs(sweep_intervals(g, d)) == [
        (U1.point(1, 2), U1.point(1, 5)),
        (U1.point(1, 7), U1.point(1, 0)),
    ]
    g, d = parse_arc(U1, "1:0-1:5"), parse_arc(U1, "1:0-1:3")
    assert pairs(sweep_intervals(g, d)) == [
        (U1.point(1, 0), U1.point(1, 0)),
        (U1.point(1, 3), U1.point(1, 5)),
    ]
    g = parse_arc(U1, "1:0-1:5")
    assert pairs(sweep_intervals(g, g)) == [
        (U1.point(1, 0), U1.point(1, 0)),
        (U1.point(1, 5), U1.point(1, 5)),
    ]
    with pytest.raises(ValueError):
        sweep_intervals(parse_arc(U1, "1:0-1:3"), parse_arc(U1, "1:10-1:13"))


def test_factors_over_examples():
    assert factors_over(parse_arc(U1, "1:0-1:5"), parse_arc(U1, "1:2-1:7"))
    assert not factors_over(
        parse_arc(U4, "1:0-3:0"), parse_arc(U4, "1:2-3:2"), ArcClass.COLLAPSING
    )
    # the swept intervals meet the odd interval on both sides here, so a
    # persistent arc (for instance 1:0-1:2) does factor this map
    assert factors_over(
        parse_arc(U2, "1:0-2:4"), parse_arc(U2, "1:2-2:6"), ArcClass.PERSISTENT
    )


@pytest.mark.parametrize("surface, bound, witness_bound", [(U2, 2, 5), (U4, 1, 4)])
def test_factors_over_a_class_matches_window_witnesses(surface, bound, witness_bound):
    """A nonzero map factors through an arc of a class exactly when some arc
    of that class has one endpoint in each swept interval; the witnesses
    come from a wider window than the pairs."""
    witnesses = {cls: [a for a in all_window_arcs(surface, witness_bound) if classify(a) is cls]
                 for cls in (ArcClass.COLLAPSING, ArcClass.PERSISTENT)}
    arcs = all_window_arcs(surface, bound)
    found = dict.fromkeys(witnesses, 0)
    for g in arcs:
        for d in arcs:
            if hom_dim(g, d) != 1:
                continue
            sweep = sweep_intervals(g, d)
            for cls, arcs_of_class in witnesses.items():
                expected = any(sweep_contains(sweep, a) for a in arcs_of_class)
                assert factors_over(g, d, cls) == expected, (g, d, cls)
                found[cls] += expected
    assert found[ArcClass.COLLAPSING] > 0 and found[ArcClass.PERSISTENT] > 0


def test_sweep_membership_gives_nonzero_composites():
    g, d = parse_arc(U1, "1:0-1:6"), parse_arc(U1, "1:2-1:9")
    sweep = sweep_intervals(g, d)
    for alpha in all_window_arcs(U1, 11):
        if sweep_contains(sweep, alpha):
            assert hom_dim(g, alpha) == 1, alpha
            assert hom_dim(alpha, d) == 1, alpha


@given(surface_and_arcs(2, completed_only=True))
@settings(max_examples=150)
def test_clockwise_case_holds_for_at_most_one_ordering(data):
    _, (g, d) = data
    forward = ext_case(g, d) is ExtCase.CLOCKWISE_AT_ACCUMULATION
    backward = ext_case(d, g) is ExtCase.CLOCKWISE_AT_ACCUMULATION
    assert not (forward and backward)


@given(surface_and_arcs(2, completed_only=True))
@settings(max_examples=150)
def test_restricted_ext_below_ambient_and_symmetric(data):
    _, (g, d) = data
    assert ext_dim(g, d) <= ext_ambient_dim(g, d)
    assert ext_dim(g, d) == ext_dim(d, g)


@given(surface_and_arcs(2))
@settings(max_examples=100)
def test_hom_is_shift_equivariant(data):
    _, (g, d) = data
    assert hom_dim(g, d) == hom_dim(shift_arc(g, 1), shift_arc(d, 1))


@given(surface_and_arcs(2, completed_only=True))
@settings(max_examples=150)
def test_persistent_restriction_matches_lifts(data):
    # arcs avoiding the accumulation points have their morphisms computed
    # upstairs between the canonical lifts
    _, (g, d) = data
    if any(p.pos is None for p in (*g.endpoints, *d.endpoints)):
        return
    assert hom_dim(g, d) == hom_dim(canonical_lift(g), canonical_lift(d))


def test_exchange_triangles_quadrilateral():
    g, gp = parse_arc(U1, "1:0-1:4"), parse_arc(U1, "1:2-1:6")
    sides = exchange_triangles(g, gp)
    got = {None if s is None else s for s in (*sides.alpha, *sides.beta)}
    assert got == {
        parse_arc(U1, "1:0-1:6"),
        parse_arc(U1, "1:2-1:4"),
        parse_arc(U1, "1:0-1:2"),
        parse_arc(U1, "1:4-1:6"),
    }
    # alpha sides pair each endpoint of g with its clockwise neighbour in gp
    assert set(sides.alpha) == {parse_arc(U1, "1:0-1:6"), parse_arc(U1, "1:2-1:4")}


def test_exchange_triangles_boundary_sides():
    sides = exchange_triangles(parse_arc(U1, "1:0-1:2"), parse_arc(U1, "1:1-1:3"))
    assert None in (*sides.alpha, *sides.beta)
    arcs = [s for s in (*sides.alpha, *sides.beta) if s is not None]
    assert parse_arc(U1, "1:0-1:3") in arcs


def test_exchange_triangles_adjacent_corner_sides_are_boundary():
    # consecutive corners in different intervals of a completed surface give
    # two genuine arcs and two boundary segments
    sides = exchange_triangles(parse_arc(C2, "1:0-2:0"), parse_arc(C2, "1:1-2:1"))
    arcs = {s for s in (*sides.alpha, *sides.beta) if s is not None}
    assert arcs == {parse_arc(C2, "1:1-2:0"), parse_arc(C2, "2:1-1:0")}
    assert (*sides.alpha, *sides.beta).count(None) == 2


@given(surface_and_arcs(2))
@settings(max_examples=150)
def test_exchange_sides_never_cross_the_diagonals(data):
    from infgon.arcs import cross_transverse

    _, (g, d) = data
    if not cross_transverse(g, d):
        return
    sides = exchange_triangles(g, d)
    for s in (*sides.alpha, *sides.beta):
        if s is not None:
            assert not cross_transverse(s, g)
            assert not cross_transverse(s, d)
