"""The symbolic generator predicates against instance-by-instance brute force."""

import itertools
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import arcs_on
from infgon.affine import EMPTY_RANGE
from infgon.arcs import Arc, cross_transverse, format_arc
from infgon.surface import Point, Surface
from infgon.triangulation import (
    Family,
    IntRange,
    Moving,
    Single,
    Triangulation,
    TriangulationError,
    Window,
    build_fountain,
    crossing_witness,
    duplicate_witness,
    family_param_of,
    validate_non_crossing,
    window_arcs,
)
from infgon.render import _truncation_gaps
from infgon.triangulation import _escape, _invalid_family_param


@st.composite
def bounded_families(draw, surface: Surface, singles: bool = False):
    """A family over a domain of at most five parameters, or with
    ``singles`` sometimes a single arc."""
    if singles and draw(st.integers(0, 3)) == 0:
        return Single(draw(arcs_on(surface, 6)))

    def endpoint(moving: bool):
        k = draw(st.integers(1, surface.intervals))
        if moving:
            return Moving(k, draw(st.integers(-6, 6)), draw(st.sampled_from([-2, -1, 1, 2])))
        if surface.completed and draw(st.integers(0, 3)) == 0:
            return Point(surface, k, None)
        return Point(surface, k, draw(st.integers(-6, 6)))

    which = draw(st.sampled_from(["fan", "co-fan", "ladder"]))
    e0 = endpoint(which != "fan")
    e1 = endpoint(which != "co-fan")
    lo = draw(st.integers(-3, 3))
    return Family(e0, e1, IntRange(lo, lo + draw(st.integers(0, 4))))


def materialize(surface: Surface, gen):
    if isinstance(gen, Single):
        return [gen.arc]
    return [gen.arc_at(surface, t) for t in gen.domain.iterate()]


@given(st.data())
@settings(max_examples=250)
def test_validate_non_crossing_matches_brute_force(data):
    surface = data.draw(st.sampled_from([Surface(True, 1), Surface(True, 2), Surface(False, 2)]))
    gens = []
    for _ in range(data.draw(st.integers(1, 3))):
        gens.append(data.draw(bounded_families(surface, singles=True)))
    try:
        t = Triangulation(surface, tuple(gens))
    except TriangulationError:
        assume(False)
    arcs = [a for g in gens for a in materialize(surface, g)]
    brute = any(cross_transverse(a, b) for a, b in itertools.combinations(arcs, 2))
    report = validate_non_crossing(t)
    assert report.ok == (not brute)
    if not report.ok:
        w1, w2 = report.witness
        assert cross_transverse(w1, w2)
        assert w1 in set(arcs) and w2 in set(arcs)


@given(st.data())
@settings(max_examples=250)
def test_crossing_witness_matches_brute_force_pairwise(data):
    surface = data.draw(st.sampled_from([Surface(True, 1), Surface(False, 2)]))
    gen_a = data.draw(bounded_families(surface, singles=True))
    gen_b = data.draw(bounded_families(surface, singles=True))
    try:
        arcs_a = materialize(surface, gen_a)
        arcs_b = materialize(surface, gen_b)
    except ValueError:
        assume(False)
    brute = any(cross_transverse(a, b) for a in arcs_a for b in arcs_b)
    hit = crossing_witness(surface, gen_a, gen_b)
    assert (hit is not None) == brute
    if hit is not None:
        assert cross_transverse(*hit)
        assert hit[0] in arcs_a and hit[1] in arcs_b


@given(st.data())
@settings(max_examples=250)
def test_duplicate_witness_matches_brute_force(data):
    surface = data.draw(st.sampled_from([Surface(True, 1), Surface(False, 2)]))
    gen_a = data.draw(bounded_families(surface, singles=True))
    gen_b = data.draw(bounded_families(surface, singles=True))
    try:
        arcs_a = set(materialize(surface, gen_a))
        arcs_b = set(materialize(surface, gen_b))
    except ValueError:
        assume(False)
    brute = bool(arcs_a & arcs_b)
    hit = duplicate_witness(surface, gen_a, gen_b)
    assert (hit is not None) == brute
    if hit is not None:
        assert hit in arcs_a and hit in arcs_b


@st.composite
def mirrored_ladders(draw, surface: Surface):
    """Ladders whose two ends run towards each other on one interval, so that
    the instances at t and c - t are one arc."""
    k = draw(st.integers(1, surface.intervals))
    base, stride = draw(st.integers(-6, 6)), draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    lo, width = draw(st.integers(-3, 3)), draw(st.integers(0, 4))
    c = 2 * lo + draw(st.integers(0, 2 * width))
    return Family(Moving(k, base, stride), Moving(k, base + stride * c, -stride), IntRange(lo, lo + width))


@given(st.data())
@settings(max_examples=250)
def test_duplicate_witness_within_one_family_matches_brute_force(data):
    surface = data.draw(st.sampled_from([Surface(True, 1), Surface(False, 1), Surface(False, 2)]))
    fam = data.draw(st.one_of(bounded_families(surface), mirrored_ladders(surface)))
    try:
        arcs = materialize(surface, fam)
    except ValueError:
        assume(False)
    brute = len(set(arcs)) < len(arcs)
    hit = duplicate_witness(surface, fam, fam, same=True)
    assert (hit is not None) == brute
    if hit is not None:
        assert arcs.count(hit) > 1


@given(st.data())
@settings(max_examples=250)
def test_family_param_of_matches_brute_force(data):
    """family_param_of gives a parameter t of the domain with arc_at(t) equal
    to the arc exactly when there is one: at instances inside and just
    outside the domain, and at arbitrary arcs."""
    surface = data.draw(st.sampled_from([Surface(True, 2), Surface(False, 2)]))
    fam = data.draw(bounded_families(surface))
    params: dict[Arc, list[int]] = {}
    for t in range(fam.domain.lo - 3, fam.domain.hi + 4):
        try:
            params.setdefault(fam.arc_at(surface, t), []).append(t)
        except ValueError:
            continue
    for arc in [*params, *data.draw(st.lists(arcs_on(surface, 6), max_size=4))]:
        inside = [t for t in params.get(arc, ()) if fam.domain.contains(t)]
        got = family_param_of(fam, arc)
        assert got in inside if inside else got is None, (arc, inside, got)


@given(st.data())
@settings(max_examples=250)
def test_membership_matches_brute_force(data):
    surface = data.draw(st.sampled_from([Surface(True, 2), Surface(False, 2)]))
    fam = data.draw(bounded_families(surface))
    try:
        arcs = [fam.arc_at(surface, t) for t in fam.domain.iterate()]
        t = Triangulation(surface, (fam,))
    except (ValueError, TriangulationError):
        assume(False)
    for a in arcs:
        assert t.contains(a)
    probe = data.draw(st.integers(-3, 3))
    outside_lo = fam.domain.lo - 1 - abs(probe)
    try:
        outside = fam.arc_at(surface, outside_lo)
    except ValueError:
        return
    assert t.contains(outside) == (outside in arcs)


def symbolic_twin(arc: Arc):
    """The one-instance family equal to ``arc``, moving at its first regular
    endpoint; an arc between two accumulation points has none and stays single."""
    if arc.a.pos is not None:
        return Family(Moving(arc.a.interval, arc.a.pos, 1), arc.b, IntRange(0, 0))
    if arc.b.pos is not None:
        return Family(arc.a, Moving(arc.b.interval, arc.b.pos, 1), IntRange(0, 0))
    return Single(arc)


@pytest.mark.parametrize("surface, bound", [(Surface(True, 1), 4), (Surface(True, 2), 2), (Surface(False, 2), 2)])
def test_single_pairs_match_their_symbolic_twins(surface, bound):
    """Fixed arcs are decided directly, a fixed arc against a one-instance
    twin in one variable, and two twins by the two-variable solver.  Every
    route must give the same answer and the same witness on every ordered
    pair of window arcs."""
    arcs = window_arcs(Window.symmetric(surface, bound))
    twins = {a: symbolic_twin(a) for a in arcs}
    for a, b in itertools.product(arcs, repeat=2):
        crossing = crossing_witness(surface, Single(a), Single(b))
        assert crossing == ((a, b) if cross_transverse(a, b) else None)
        duplicate = duplicate_witness(surface, Single(a), Single(b))
        assert duplicate == (a if a == b else None)
        for gen_a, gen_b in ((twins[a], twins[b]), (Single(a), twins[b]), (twins[a], Single(b))):
            assert crossing_witness(surface, gen_a, gen_b) == crossing
            assert duplicate_witness(surface, gen_a, gen_b) == duplicate


def _position_gap(surface: Surface, fam: Family, t: int):
    """Position difference of the instance at t when its ends share an
    interval and are regular points, else None."""
    p, q = (Point(surface, e.interval, e.pos_at(t)) if isinstance(e, Moving) else e for e in (fam.e0, fam.e1))
    if p.pos is None or q.pos is None or p.interval != q.interval:
        return None
    return q.pos - p.pos


@given(st.data())
@settings(max_examples=400)
def test_invalid_family_param_matches_brute_force(data):
    """The reported parameter is the instance with equal or adjacent ends
    whose position difference is lowest (the lowest such parameter on a tie)."""
    surface = data.draw(st.sampled_from([Surface(True, 1), Surface(True, 2), Surface(False, 1)]))
    fam = data.draw(bounded_families(surface))
    gaps = {t: _position_gap(surface, fam, t) for t in fam.domain.iterate()}
    bad = [t for t, gap in gaps.items() if gap is not None and abs(gap) <= 1]
    expected = min(bad, key=lambda t: (gaps[t], t)) if bad else None
    assert _invalid_family_param(fam) == expected


@st.composite
def families_with_any_domain(draw, surface: Surface):
    fam = draw(bounded_families(surface))
    lo, hi = fam.domain.lo, fam.domain.hi
    domain = draw(st.sampled_from([IntRange(lo, hi), IntRange(lo, None), IntRange(None, hi), IntRange(None, None)]))
    return Family(fam.e0, fam.e1, domain)


def _visible_params(fam: Family, window: Window) -> IntRange:
    """Reference: the parameters at which every moving end of ``fam`` lies
    within the window's position span on its interval."""
    params = fam.domain
    for e in fam.moving_endpoints:
        positions = [p.pos for p in window.points if p.interval == e.interval and p.pos is not None]
        if not positions:
            return EMPTY_RANGE
        params = params.intersect(e.params_with_pos_in(min(positions), max(positions)))
    return params


def _truncation_gaps_by_visible_params(t: Triangulation, window: Window) -> list[int]:
    """Reference: a family's tail is hidden toward an end when its visible
    parameters are empty or stop short of its domain that way."""
    gaps: set[int] = set()
    for gen in t.generators:
        if not isinstance(gen, Family):
            continue
        visible = _visible_params(gen, window)
        for end in (1, -1):
            beyond = (
                visible.is_empty
                or (end > 0 and (gen.domain.hi is None or (visible.hi is not None and visible.hi < gen.domain.hi)))
                or (end < 0 and (gen.domain.lo is None or (visible.lo is not None and visible.lo > gen.domain.lo)))
            )
            if beyond:
                gaps.update(_escape(m, end, t.surface.intervals)[0] for m in gen.moving_endpoints)
    return sorted(gaps)


@given(st.data())
@settings(max_examples=300)
def test_truncation_gaps_match_the_visible_parameters(data):
    """Reading the instance at each end of a family's domain finds the same
    hidden tails as cutting the domain to the window's positions."""
    surface = data.draw(st.sampled_from([Surface(True, 1), Surface(True, 2), Surface(False, 2), Surface(False, 3)]))
    gens = tuple(data.draw(families_with_any_domain(surface)) for _ in range(data.draw(st.integers(1, 3))))
    try:
        t = Triangulation(surface, gens)
    except TriangulationError:
        assume(False)
    radius = data.draw(st.integers(2, 7))
    assert _truncation_gaps(t, radius) == _truncation_gaps_by_visible_params(t, Window.symmetric(surface, radius))


def counting_placement():
    """``Moving.params_with_pos_in``, the unit of work of placing a moving
    end among window points, patched to count its calls inside a ``with`` block."""
    return mock.patch.object(Moving, "params_with_pos_in", autospec=True, side_effect=Moving.params_with_pos_in)


def placement_bound(window: Window, gens) -> int:
    """Most ``params_with_pos_in`` calls placing ``gens``: each moving end is
    cut at most at every window point, into at most 2m + 1 pieces."""
    moving = sum(len(g.moving_endpoints) for g in gens if isinstance(g, Family))
    return moving * (2 * len(window.points) + 1)


def far_window(data, surface: Surface, near: list[Point]) -> Window:
    """A window of some of the ``near`` points and of points 10^6 and 10^12
    out on every interval, so its positions span far more than its size."""
    far = [Point(surface, k, sign * (scale + d)) for k in range(1, surface.intervals + 1)
           for sign in (1, -1) for scale in (10**6, 10**12) for d in (0, 1)]
    if surface.completed:
        far += [Point(surface, k, None) for k in range(1, surface.intervals + 1)]
    return Window.of_points(data.draw(st.lists(st.sampled_from(near + far), min_size=1, unique=True)))


@given(st.data())
@settings(max_examples=200)
def test_arcs_in_window_matches_brute_force_on_far_windows(data):
    """The window's arcs are the materialized instances with both ends in it,
    placed with work bounded by the window's point count, not its span."""
    surface = data.draw(st.sampled_from([Surface(True, 1), Surface(True, 2), Surface(False, 2)]))
    gens = tuple(data.draw(bounded_families(surface, singles=True)) for _ in range(data.draw(st.integers(1, 3))))
    try:
        t = Triangulation(surface, gens)
    except TriangulationError:
        assume(False)
    arcs = [a for g in gens for a in materialize(surface, g)]
    window = far_window(data, surface, [p for a in arcs for p in a.endpoints])
    pts = set(window.points)
    with counting_placement() as placed:
        got = t.arcs_in_window(window)
    assert got == {a for a in arcs if a.a in pts and a.b in pts}
    assert placed.call_count <= placement_bound(window, gens)


@given(st.data())
@settings(max_examples=200)
def test_arcs_in_window_of_unbounded_families_matches_membership(data):
    """On any domain, the window's arcs are the arcs between window points
    that the family presents, reached within the same work bound."""
    surface = data.draw(st.sampled_from([Surface(True, 1), Surface(True, 2), Surface(False, 2)]))
    fam = data.draw(families_with_any_domain(surface))
    try:
        t = Triangulation(surface, (fam,))
    except TriangulationError:
        assume(False)
    window = far_window(data, surface, list(Window.symmetric(surface, 8, include_accumulation=False).points))
    expected = set()
    for p, q in itertools.combinations(window.points, 2):
        try:
            arc = Arc(p, q)
        except ValueError:
            continue
        if family_param_of(fam, arc) is not None:
            expected.add(arc)
    with counting_placement() as placed:
        got = t.arcs_in_window(window)
    assert got == expected
    assert placed.call_count <= placement_bound(window, (fam,))


def test_arcs_in_window_is_bounded_by_its_points_not_its_span():
    s = Surface(True, 1)
    t = build_fountain(s, s.point(1, 0))
    window = Window.of_points([s.point(1, 0), s.point(1, 5), s.point(1, 10**6)])
    with counting_placement() as placed:
        got = t.arcs_in_window(window)
    assert sorted(map(format_arc, got)) == ["1:0-1:1000000", "1:0-1:5"]
    # the upward family is cut at 1:5 and 1:1000000, the downward one at no point
    assert placed.call_count == 5 + 1 <= placement_bound(window, t.generators)
