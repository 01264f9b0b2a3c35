"""Configurations beyond the worked examples: ladders across gaps, shifted
alignments, octagon quadrilaterals, window enumeration properties."""

import itertools

import pytest

from infgon.arcs import Arc, cross_transverse, parse_arc
from infgon.homs import ext_dim
from infgon.mutation import approximate, flip, is_mutable, right_module_generators, NotFinitelyGenerated
from infgon.surface import Surface
from infgon.triangulation import (
    Family,
    IntRange,
    LeapfrogError,
    Moving,
    Side,
    Triangulation,
    Window,
    build_zigzag_leapfrog,
    canonical_zigzag,
    detect_leapfrog,
    from_window_set,
    validate_non_crossing,
    window_arcs,
    window_brute_force,
)

C1 = Surface(True, 1)
C2 = Surface(True, 2)


def test_octagon_quadrilateral_has_two_left_summands():
    w = Window.of_points([C1.point(1, i) for i in range(8)])
    T = frozenset(
        parse_arc(C1, s)
        for s in ("1:0-1:7", "1:0-1:2", "1:2-1:4", "1:4-1:6", "1:0-1:6", "1:0-1:4")
    )
    assert T in set(window_brute_force(w))
    t = from_window_set(w, T)
    diag = parse_arc(C1, "1:0-1:4")
    res = approximate(t, diag, Side.LEFT)
    assert res.exists
    assert set(res.summands) == {parse_arc(C1, "1:0-1:2"), parse_arc(C1, "1:4-1:6")}
    res = approximate(t, diag, Side.RIGHT)
    assert res.exists
    assert set(res.summands) == {parse_arc(C1, "1:0-1:6"), parse_arc(C1, "1:2-1:4")}
    assert is_mutable(t, diag)
    assert flip(t, diag).new_arc == parse_arc(C1, "1:2-1:6")


def test_zigzag_rung_flips():
    z = canonical_zigzag(C1)
    rung = parse_arc(C1, "1:2-1:-1")  # shares tips with the neighbouring rungs
    assert z.contains(rung)
    assert is_mutable(z, rung)
    res = flip(z, rung)
    assert res.new_arc == parse_arc(C1, "1:1-1:-2")
    assert validate_non_crossing(res.new_triangulation).ok
    # the infinite ladder tail survives the flip
    assert detect_leapfrog(res.new_triangulation) is not None
    nfg = right_module_generators(res.new_triangulation, parse_arc(C1, "1:0-a1"))
    assert isinstance(nfg, NotFinitelyGenerated)


def test_zigzag_innermost_arc_flip():
    z = canonical_zigzag(C1)
    a = parse_arc(C1, "1:1-1:-1")
    assert is_mutable(z, a)
    res = flip(z, a)
    assert res.new_arc == parse_arc(C1, "1:0-1:2")
    back = flip(res.new_triangulation, res.new_arc)
    assert back.new_arc == a


def test_deep_ladder_arcs_are_mutable_but_module_infinite():
    z = canonical_zigzag(C1)
    for text in ("1:5-1:-5", "1:7-1:-6"):
        a = parse_arc(C1, text)
        assert z.contains(a)
        assert is_mutable(z, a)


def test_leapfrog_alignment_with_offset_indexing():
    alpha = Family(Moving(1, 0, 1), Moving(1, 0, -1), IntRange(1, None))
    beta = Family(Moving(1, 6, 1), Moving(1, -5, -1), IntRange(-4, None))
    t = build_zigzag_leapfrog(C1, alpha, beta)
    w = detect_leapfrog(t)
    assert w is not None and w.offset == -5


def test_downward_ladder_is_the_same_leapfrog():
    """canonical_zigzag reparametrised by t -> -t presents the same arcs with
    a chain that runs down to -infinity."""
    alpha = Family(Moving(1, 0, -1), Moving(1, 0, 1), IntRange(None, -1))
    beta = Family(Moving(1, 1, -1), Moving(1, 0, 1), IntRange(None, -1))
    up, down = canonical_zigzag(C1), build_zigzag_leapfrog(C1, alpha, beta)
    w_up, w_down = detect_leapfrog(up), detect_leapfrog(down)
    assert (w_up.direction, w_down.direction) == (1, -1)
    assert sorted(w_down.curve_ends) == sorted(w_up.curve_ends)
    window = Window.symmetric(C1, 6)
    assert down.arcs_in_window(window) == up.arcs_in_window(window)
    # the zigzag queries of criterion 8
    for k in range(-5, 5):
        g = Arc(C1.point(1, k), C1.accumulation(1))
        assert isinstance(right_module_generators(down, g), NotFinitelyGenerated), k


def test_cross_gap_ladder_detected_but_not_certifiable():
    # a ladder whose tips straddle one accumulation point of a two-gap disc;
    # its complement holds the whole second gap, so no finite closing set
    # makes it maximal
    alpha = Family(Moving(1, 0, 1), Moving(2, 0, -1), IntRange(1, None))
    beta = Family(Moving(2, 0, -1), Moving(1, 1, 1), IntRange(1, None))
    t = Triangulation(C2, (alpha, beta))
    assert validate_non_crossing(t).ok
    witness = detect_leapfrog(t)
    assert witness is not None
    assert set(witness.curve_ends) == {"a1+", "a1-"}
    with pytest.raises(LeapfrogError):
        build_zigzag_leapfrog(C2, alpha, beta)


def test_window_sets_are_maximal_and_non_crossing():
    # independent of the polygon recursion: check the defining property
    for pts in (
        [C1.point(1, i) for i in range(5)],
        [C1.point(1, -1), C1.point(1, 0), C1.point(1, 1), C1.point(1, 2), C1.accumulation(1)],
        [C2.point(1, 0), C2.point(1, 1), C2.accumulation(1), C2.point(2, 0), C2.accumulation(2)],
    ):
        w = Window.of_points(pts)
        arcs = window_arcs(w)
        sets = window_brute_force(w)
        assert len(sets) == len(set(sets))
        for T in sets:
            for a, b in itertools.combinations(T, 2):
                assert not cross_transverse(a, b)
            for cand in arcs:
                if cand in T:
                    continue
                assert any(cross_transverse(cand, a) for a in T), (pts, cand)


def test_window_counts_are_catalan():
    def catalan(n):
        from math import comb

        return comb(2 * n, n) // (n + 1)

    for m in range(3, 9):
        w = Window.of_points([C1.point(1, i) for i in range(m)])
        assert len(window_brute_force(w)) == catalan(m - 2)


def test_ext_zero_inside_every_window_triangulation():
    w = Window.symmetric(C2, 1)
    for T in window_brute_force(w):
        for a, b in itertools.combinations(T, 2):
            assert ext_dim(a, b) == 0
