import pytest

from infgon.affine import IntRange
from infgon.arcs import parse_arc
from infgon.render import RenderSpec, render_svg
from infgon.surface import Surface
from infgon.triangulation import Family, Moving, Triangulation, build_fountain, canonical_zigzag

C1 = Surface(True, 1)


def test_fountain_window_counts():
    t = build_fountain(C1, C1.point(1, 0))
    svg = render_svg(t, RenderSpec(radius=6))
    assert svg.count('class="pt"') == 13
    assert svg.count('class="acc"') == 1
    assert svg.count('class="arc"') == 11
    assert svg.count('class="trunc"') >= 1


def test_deterministic_bytes():
    t = build_fountain(C1, C1.point(1, 0))
    spec = RenderSpec(radius=5)
    assert render_svg(t, spec) == render_svg(t, spec)


def test_empty_arc_list_draws_boundary_only():
    svg = render_svg(Triangulation(C1, ()), RenderSpec(radius=4))
    assert svg.count('class="arc"') == 0
    assert 'class="boundary"' in svg
    assert svg.count('class="pt"') == 9


def test_zigzag_truncation_marks():
    svg = render_svg(canonical_zigzag(C1), RenderSpec(radius=8))
    assert svg.count('class="arc"') == 15
    assert svg.count('class="trunc"') == 1


def test_every_moving_end_ticks_its_gap():
    """The nested arcs 1:-1-t to 1:1+t leave the window towards a2 at one end
    and towards a1 at the other, so both gaps are ticked."""
    c2 = Surface(True, 2)
    t = Triangulation(c2, (Family(Moving(1, -1, -1), Moving(1, 1, 1), IntRange(0, None)),))
    assert render_svg(t, RenderSpec(radius=3)).count('class="trunc"') == 2


def test_highlight_and_radius_guard():
    t = build_fountain(C1, C1.point(1, 0))
    a = parse_arc(C1, "1:0-1:3")
    svg = render_svg(t, RenderSpec(radius=5, highlight=(a,)))
    assert svg.count('class="arc hl"') == 1
    with pytest.raises(ValueError):
        RenderSpec(radius=1)
