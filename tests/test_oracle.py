"""The factorization oracle against the crossing formula."""

import random

import pytest

from conftest import all_window_arcs
from infgon import homs
from infgon.arcs import Arc, ArcClass, canonical_lift, format_arc, parse_arc, shift_arc, squeeze
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


def test_oracle_collapse_exit():
    """The lifted sweep holds a collapsing and a persistent arc: the collapse
    decides, so the answer is 0, not 1."""
    both = parse_arc(C2, "a1-a2")
    up = Surface(False, 4)
    lg, ld = parse_arc(up, "2:0-4:0"), parse_arc(up, "2:5-4:5")
    sld = shift_arc(ld, 1)
    assert factors_over(lg, sld, ArcClass.COLLAPSING) and factors_over(lg, sld, ArcClass.PERSISTENT)
    assert ext_dim_oracle(both, both, lift_g=lg, lift_d=ld) == 0


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
    """Shifts and lifts build no validated arc, no sweep is decomposed piece
    by piece, the oracle never consults ext_dim, and each oracle call reads
    a bounded number of runs whatever the surface's interval count."""
    arcs = window_arcs(Window.symmetric(C2, 3))
    small = window_arcs(Window.symmetric(Surface(True, 3), 2))
    # the same arcs on the first three intervals of a huge surface
    huge = [parse_arc(Surface(True, 100_000), format_arc(a)) for a in small]
    calls = {"runs_on": 0, "sweep_intervals": 0}
    runs_on, sweep_intervals = homs.BoundaryInterval.runs_on, homs.sweep_intervals

    def refuse(*args):
        raise AssertionError("validated or decomposed on the oracle path")

    def counted_runs_on(self, k):
        calls["runs_on"] += 1
        # two ends for the collapsing test, two intervals a sweep for the persistent one
        assert calls["runs_on"] <= 8, "runs_on called more than 8 times in one call"
        return runs_on(self, k)

    def counted_sweep(g, d):
        calls["sweep_intervals"] += 1
        return sweep_intervals(g, d)

    monkeypatch.setattr(Arc, "__init__", refuse)
    monkeypatch.setattr(homs, "ext_dim", refuse)
    monkeypatch.setattr(homs, "open_interval_segments", refuse)
    monkeypatch.setattr(homs.BoundaryInterval, "runs_on", counted_runs_on)
    monkeypatch.setattr(homs, "sweep_intervals", counted_sweep)

    def oracle_reads(pool: list) -> list[int]:
        """runs_on calls of each ext_dim_oracle call over every ordered pair."""
        out = []
        for g in pool:
            for d in pool:
                hom_dim(g, d)
                calls["runs_on"] = 0
                ext_dim_oracle(g, d)
                out.append(calls["runs_on"])
                lg, sld = canonical_lift(g), shift_arc(canonical_lift(d), 1)
                if hom_dim(lg, sld):
                    for family in (None, ArcClass.COLLAPSING, ArcClass.PERSISTENT):
                        calls["runs_on"] = 0
                        factors_over(lg, sld, family)
        return out

    assert max(oracle_reads(arcs)) > 0
    assert calls["sweep_intervals"] > len(arcs) ** 2 // 4
    assert max(oracle_reads(small)) == max(oracle_reads(huge))
