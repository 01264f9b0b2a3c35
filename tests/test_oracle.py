"""The factorization oracle against the crossing formula."""

import random

import pytest

from conftest import all_window_arcs
from infgon import homs
from infgon.arcs import Arc, ArcClass, canonical_lift, parse_arc, shift_arc, squeeze
from infgon.homs import ext_dim, ext_dim_oracle, factors_over, hom_dim
from infgon.surface import Point, Surface
from infgon.triangulation import Window, window_arcs

C1 = Surface(True, 1)
C2 = Surface(True, 2)


def test_oracle_spec_values():
    g, d = parse_arc(C2, "1:0-a1"), parse_arc(C2, "1:2-a1")
    assert ext_dim_oracle(g, d) == 0
    g, d = parse_arc(C1, "1:0-1:4"), parse_arc(C1, "1:2-a1")
    assert ext_dim_oracle(g, d) == 1
    both = parse_arc(C2, "a1-a2")
    assert ext_dim_oracle(both, both) == 0


def test_oracle_equals_crossing_formula_on_small_window():
    arcs = all_window_arcs(C2, 3)
    for g in arcs:
        for d in arcs:
            assert ext_dim(g, d) == ext_dim_oracle(g, d), (g, d)


def test_oracle_rejects_wrong_lifts():
    g = parse_arc(C1, "1:0-a1")
    wrong = canonical_lift(parse_arc(C1, "1:1-a1"))
    with pytest.raises(ValueError):
        ext_dim_oracle(g, g, lift_g=wrong)


def test_oracle_lift_independence_sample():
    rng = random.Random(11)
    arcs = [a for a in all_window_arcs(C2, 3) if a.a.pos is None or a.b.pos is None]
    target = Surface(False, 4)

    def random_lift(g: Arc) -> Arc:
        def lift(p: Point) -> Point:
            if p.pos is None:
                return Point(target, 2 * p.interval, rng.randint(-20, 20))
            return Point(target, 2 * p.interval - 1, p.pos)

        return Arc(lift(g.a), lift(g.b))

    for _ in range(300):
        g, d = rng.choice(arcs), rng.choice(arcs)
        lg, ld = random_lift(g), random_lift(d)
        assert squeeze(lg) == g and squeeze(ld) == d
        assert ext_dim_oracle(g, d, lift_g=lg, lift_d=ld) == ext_dim_oracle(g, d)


def test_oracle_path_builds_nothing_twice(monkeypatch):
    """Shifts and lifts build no validated arc, each sweep decomposes each of
    its two intervals at most once, and the oracle never consults ext_dim."""
    arcs = window_arcs(Window.symmetric(C2, 3))
    per_sweep: list[int] = []  # _segments calls following each sweep_intervals call
    segments, sweep_intervals = homs._segments, homs.sweep_intervals

    def refuse(*args):
        raise AssertionError("validated on the oracle path")

    def counted_segments(*args):
        per_sweep[-1] += 1
        return segments(*args)

    def counted_sweep(g, d):
        per_sweep.append(0)
        return sweep_intervals(g, d)

    monkeypatch.setattr(Arc, "__init__", refuse)
    monkeypatch.setattr(homs, "ext_dim", refuse)
    monkeypatch.setattr(homs, "_segments", counted_segments)
    monkeypatch.setattr(homs, "sweep_intervals", counted_sweep)
    for g in arcs:
        for d in arcs:
            hom_dim(g, d)
            ext_dim_oracle(g, d)
            lg, sld = canonical_lift(g), shift_arc(canonical_lift(d), 1)
            if hom_dim(lg, sld):
                for family in (None, ArcClass.COLLAPSING, ArcClass.PERSISTENT):
                    factors_over(lg, sld, family)
    assert len(per_sweep) > len(arcs) ** 2 // 4
    assert max(per_sweep) == 2
