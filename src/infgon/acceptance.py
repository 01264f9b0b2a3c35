"""Desk-scale verification batteries.

Every battery recomputes its claim through an independent route (brute
force enumeration, the factorization oracle, bounded searches) and compares
against the engine, exactly and with zero tolerance.  ``run_all`` powers
both the test suite and the ``verify-suite`` CLI verb.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Iterator

from .arcs import Arc, arc_key, canonical_lift, cross_transverse, format_arc, shift_arc
from .homs import (
    ExtCase,
    ext_ambient_dim,
    ext_case,
    ext_dim,
    ext_dim_oracle,
    hom_dim,
    is_weak_ct,
    sweep_contains,
    sweep_intervals,
)
from .mutation import (
    NotFinitelyGenerated,
    approximate,
    flip,
    is_mutable,
    quad_frame,
    right_module_generators,
)
from .surface import Point, Surface, adjacent, between, format_point, step
from .triangulation import (
    Family,
    IntRange,
    LimitKind,
    Moving,
    Side,
    Single,
    Triangulation,
    Window,
    _remove_arc,
    arc_crossing_in,
    build_fountain,
    canonical_zigzag,
    from_window_set,
    limit_of_family,
    validate_non_crossing,
    window_arcs,
    window_brute_force,
)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    checked: int
    failures: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        msg = f"{status} {self.name}: {self.checked} checks in {self.elapsed:.1f}s"
        if self.failures:
            msg += f" ({len(self.failures)} failures, first: {self.failures[0]})"
        return msg


def _criterion(name: str):
    """Time a battery returning (checked, failures) and wrap it as a CriterionResult."""

    def wrap(battery):
        @functools.wraps(battery)
        def run(level: str = "desk") -> CriterionResult:
            t0 = time.perf_counter()
            checked, failures = battery(level)
            return CriterionResult(name, not failures, checked, failures, time.perf_counter() - t0)

        return run

    return wrap


_STRICT_DROPS = {ExtCase.CLOCKWISE_AT_ACCUMULATION, ExtCase.DOUBLE_ACCUMULATION_SELF}
_GAP_CAP = 3  # one gap of 3 between consecutive endpoint positions stands for every gap >= 3


def pair_types(n: int) -> Iterator[tuple[Arc, Arc]]:
    """One ordered arc pair (g, d) on completed:n per order type, each type once.

    A type fixes each endpoint's slot, the weak order of the regular endpoints
    on each interval and the gaps between their positions, capped at _GAP_CAP.
    The arc and morphism predicates read only cyclic order, +-1 steps and
    equality, so the representative, each interval starting at 0, stands
    for its whole type.
    """
    surface = Surface(True, n)
    for size in range(1, 5):
        # the circuit slots of the support's points: 2k - 1 on interval k, 2k for ak
        for slots in itertools.combinations_with_replacement(range(1, 2 * n + 1), size):
            if any(s % 2 == 0 and slots.count(s) > 1 for s in slots):
                continue
            # one gap for each regular point that follows another on its interval
            for gaps in itertools.product(range(1, _GAP_CAP + 1), repeat=size - len(set(slots))):
                points, steps = [], iter(gaps)
                for i, s in enumerate(slots):
                    pos = 0 if s % 2 else None
                    if i and slots[i - 1] == s:
                        pos = points[-1].pos + next(steps)
                    points.append(Point(surface, (s + 1) // 2, pos))
                arcs = [Arc(p, q) for p, q in itertools.combinations(points, 2) if not adjacent(p, q)]
                for g, d in itertools.product(arcs, repeat=2):
                    if len({g.ka, g.kb, d.ka, d.kb}) == size:  # the pair uses its whole support
                        yield g, d


def _level_pair_types(level: str) -> list[tuple[Arc, Arc]]:
    return [pair for n in range(1, 4 if level == "smoke" else 7) for pair in pair_types(n)]


def _pair_name(g: Arc, d: Arc) -> str:
    return f"{format_arc(g)} vs {format_arc(d)} on n={g.surface.intervals}"


@_criterion("1 ext-oracle equivalence")
def criterion_1_oracle_equivalence(level: str = "desk"):
    pairs = _level_pair_types(level)
    answers = [(g, d, ext_dim(g, d), ext_dim_oracle(g, d)) for g, d in pairs]
    return len(pairs), [f"{_pair_name(g, d)}: ext={e} oracle={o}" for g, d, e, o in answers if e != o]


@_criterion("2 weak 2-Calabi-Yau symmetry")
def criterion_2_symmetry(level: str = "desk"):
    pairs = _level_pair_types(level)
    return len(pairs), [_pair_name(g, d) for g, d in pairs if ext_dim(g, d) != ext_dim(d, g)]


@_criterion("3 hom asymmetry at an accumulation point")
def criterion_3_hom_asymmetry(level: str = "desk"):
    failures: list[str] = []
    checked = 0
    s2 = Surface(True, 2)
    base_g = Arc(Point(s2, 1, 0), Point(s2, 1, None))
    base_d = Arc(Point(s2, 1, None), Point(s2, 2, 5))
    for k in range(-3, 4):
        g = shift_arc(base_g, k)
        d = shift_arc(base_d, k)
        checked += 2
        if hom_dim(g, shift_arc(d, 1)) != 1:
            failures.append(f"expected dim 1 for {format_arc(g)} into shifted {format_arc(d)}")
        if hom_dim(d, shift_arc(g, 1)) != 0:
            failures.append(f"expected dim 0 for {format_arc(d)} into shifted {format_arc(g)}")
    return checked, failures


@_criterion("4 substructure containment and strict drops")
def criterion_4_containment(level: str = "desk"):
    pairs = _level_pair_types(level)
    failures = []
    for g, d in pairs:
        e, ambient, case = ext_dim(g, d), ext_ambient_dim(g, d), ext_case(g, d)
        if e > ambient:
            failures.append(_pair_name(g, d))
        elif (ambient == 1 and e == 0) != (case in _STRICT_DROPS):
            failures.append(f"{_pair_name(g, d)}: case={case}")
    return len(pairs), failures


def _ct_windows(level: str) -> list[Window]:
    s1, s2, s3 = Surface(True, 1), Surface(True, 2), Surface(True, 3)
    wins = [
        Window.symmetric(s1, 1),
        Window.symmetric(s1, 2),
        Window.symmetric(s1, 3),
        Window.of_points([Point(s1, 1, i) for i in range(6)]),
        Window.symmetric(s2, 1),
        Window.symmetric(s3, 0),
    ]
    if level != "smoke":
        wins.append(Window.symmetric(s1, 4))
    return wins


@_criterion("5 window weak cluster-tilting bijection")
def criterion_5_window_weak_ct(level: str = "desk"):
    checked = 0
    failures: list[str] = []
    for w in _ct_windows(level):
        arcs = window_arcs(w)
        sets = window_brute_force(w)
        # every fixpoint of the perpendicularity closure is pairwise
        # non-crossing and maximal, so checking the closure on each maximal
        # set decides the bijection in both directions
        for T in sets:
            checked += 1
            if not is_weak_ct(arcs, T):
                failures.append(f"maximal set not weak cluster-tilting in window of {len(w.points)} points")
        if len(w.points) == 6 and all(p.pos is not None for p in w.points) and w.surface.intervals == 1:
            if len(sets) != 14:
                failures.append(f"hexagon count {len(sets)} != 14")
    return checked, failures


def _mutability_windows(level: str) -> list[Window]:
    s1, s2 = Surface(True, 1), Surface(True, 2)
    wins = [
        Window.symmetric(s1, 1),
        Window.symmetric(s1, 2),
        Window.of_points([Point(s1, 1, i) for i in range(6)]),
        Window.symmetric(s2, 1),
    ]
    if level != "smoke":
        wins.append(Window.symmetric(s1, 3))
    return wins


def _brute_unique_replacement(w: Window, sets: list[frozenset[Arc]], T: frozenset[Arc], a: Arc) -> bool:
    others = T - {a}
    count = 0
    for cand in window_arcs(w):
        if cand == a or cand in T:
            continue
        if frozenset(others | {cand}) in sets:
            count += 1
    return count == 1


@_criterion("6 mutability trichotomy")
def criterion_6_mutability_trichotomy(level: str = "desk"):
    checked = 0
    failures: list[str] = []
    for w in _mutability_windows(level):
        sets = window_brute_force(w)
        set_index = set(sets)
        for T in sets:
            t = from_window_set(w, T)
            for a in sorted(T, key=arc_key):
                checked += 1
                c1 = _brute_unique_replacement(w, set_index, T, a)
                c2 = is_mutable(t, a)
                apx_l = approximate(t, a, Side.LEFT)
                apx_r = approximate(t, a, Side.RIGHT)
                frame = quad_frame(t, a)
                c3 = (
                    apx_l.exists
                    and apx_r.exists
                    and frame.u_left == frame.v_right
                    and frame.u_right == frame.v_left
                )
                if not (c1 == c2 == c3):
                    failures.append(
                        f"window {len(w.points)}pts arc {format_arc(a)}: brute={c1} frame={c2} approx={c3}"
                    )
    # fountains over one accumulation point
    s1 = Surface(True, 1)
    for base in (Point(s1, 1, 0), Point(s1, 1, None)):
        t = build_fountain(s1, base)
        partners: list[Point] = [Point(s1, 1, i) for i in range(-6, 7)]
        partners.append(Point(s1, 1, None))
        for v in partners:
            try:
                a = Arc(base, v)
            except ValueError:
                continue
            checked += 1
            c2 = is_mutable(t, a)
            apx_l = approximate(t, a, Side.LEFT)
            apx_r = approximate(t, a, Side.RIGHT)
            c3 = apx_l.exists and apx_r.exists
            if c3:
                frame = quad_frame(t, a)
                c3 = frame.u_left == frame.v_right and frame.u_right == frame.v_left
            c1 = _fountain_brute_unique_replacement(t, a)
            if not (c1 == c2 == c3):
                failures.append(f"fountain at {format_point(base)} arc {format_arc(a)}: {c1}/{c2}/{c3}")
    return checked, failures


def _fountain_brute_unique_replacement(t: Triangulation, a: Arc) -> bool:
    """Bounded search for arcs completing t minus a.

    A replacement arc must avoid crossing every remaining arc of the
    fountain, which pins its endpoints next to the removed arc's endpoints,
    so a search window of radius |pos| + 3 is exhaustive.
    """
    surface = t.surface
    radius = 3 + max((abs(p.pos) for p in a.endpoints if p.pos is not None), default=0)
    rest = Triangulation(surface, _remove_arc(t, a))
    count = 0
    for cand in window_arcs(Window.symmetric(surface, radius)):
        if cand == a or t.contains(cand):
            continue
        if not cross_transverse(cand, a):
            continue  # must cross the removed arc, or the old set extends
        if arc_crossing_in(rest, cand) is None:
            count += 1
    return count == 1


@_criterion("7 fountain mutability and flips")
def criterion_7_fountain_behaviour(level: str = "desk"):
    failures: list[str] = []
    checked = 0
    s1 = Surface(True, 1)
    b = Point(s1, 1, 0)
    t = build_fountain(s1, b)
    acc_arc = Arc(b, Point(s1, 1, None))
    checked += 1
    if is_mutable(t, acc_arc):
        failures.append("accumulation arc reported mutable")
    apx = approximate(t, acc_arc, Side.LEFT)
    checked += 1
    if apx.exists or apx.failed_scan is None:
        failures.append("left approximation of the accumulation arc should fail with a scan witness")
    else:
        prog = apx.failed_scan.progressions
        if not prog or prog[0].position_range().hi is not None:
            failures.append("failure witness should be an unbounded progression")
    for pos in (5, -4, 3):
        v = Point(s1, 1, pos)
        a = Arc(b, v)
        checked += 2
        if not is_mutable(t, a):
            failures.append(f"{format_arc(a)} should be mutable")
            continue
        res = flip(t, a)
        expected = Arc(step(v, -1), step(v, 1))
        if res.new_arc != expected:
            failures.append(f"flip of {format_arc(a)} gave {format_arc(res.new_arc)}, expected {format_arc(expected)}")
        if not res.new_triangulation.contains(expected) or res.new_triangulation.contains(a):
            failures.append("flip did not swap the arcs in the triangulation")
    return checked, failures


def _verify_generation(visible: frozenset[Arc], g: Arc, gens: list[Arc]) -> str | None:
    """Check every ``visible`` arc with a morphism to g[1] factors through a generator."""
    sg = shift_arc(g, 1)
    support = [b for b in visible if hom_dim(b, sg) == 1]
    for beta in support:
        if beta in gens:
            continue
        ok = False
        for gen in gens:
            if hom_dim(beta, gen) != 1 or hom_dim(gen, sg) != 1:
                continue
            if all(p.pos is not None for arc in (beta, gen, sg) for p in arc.endpoints):
                lb = canonical_lift(beta)
                lsg = canonical_lift(sg)
                if hom_dim(lb, lsg) != 1:
                    continue
                if sweep_contains(sweep_intervals(lb, lsg), canonical_lift(gen)):
                    ok = True
                    break
            else:
                ok = True
                break
        if not ok:
            return f"support arc {format_arc(beta)} does not factor through generators for {format_arc(g)}"
    return None


@_criterion("8 fans are functorially finite, leapfrogs are not")
def criterion_8_fan_finiteness(level: str = "desk"):
    failures: list[str] = []
    checked = 0
    s1 = Surface(True, 1)
    queries = window_arcs(Window.symmetric(s1, 10))
    for base in (Point(s1, 1, 0), Point(s1, 1, None)):
        t = build_fountain(s1, base)
        visible = t.arcs_in_window(Window.symmetric(s1, 12))
        for g in queries:
            checked += 1
            gens = right_module_generators(t, g)
            if isinstance(gens, NotFinitelyGenerated):
                failures.append(f"fountain query {format_arc(g)} reported not finitely generated")
                continue
            err = _verify_generation(visible, g, gens)
            if err:
                failures.append(err)
    z = canonical_zigzag(s1)
    queries = [Arc(Point(s1, 1, k), Point(s1, 1, None)) for k in range(-5, 5)]
    for g in queries:
        checked += 1
        res = right_module_generators(z, g)
        if not isinstance(res, NotFinitelyGenerated):
            failures.append(f"zigzag query {format_arc(g)} unexpectedly finitely generated")
    return checked, failures


def _limit_fixtures() -> list[tuple[Surface, Family, int | None]]:
    s1, s2, s3 = Surface(True, 1), Surface(True, 2), Surface(True, 3)
    fixtures: list[tuple[Surface, Family, int | None]] = []
    fixtures.append((s2, Family(Point(s2, 1, 0), Moving(1, 2, 1), IntRange(0, None)), None))
    fixtures.append((s2, Family(Point(s2, 1, None), Moving(2, 1, 1), IntRange(0, None)), None))
    fixtures.append((s1, Family(Point(s1, 1, None), Moving(1, -1, -1), IntRange(0, None)), None))
    fixtures.append((s1, Family(Point(s1, 1, 0), Moving(1, 2, 1), IntRange(0, None)), None))
    fixtures.append((s1, Family(Point(s1, 1, 0), Moving(1, -2, -1), IntRange(0, None)), None))
    fixtures.append((s2, Family(Point(s2, 2, 3), Moving(2, 5, 2), IntRange(0, None)), None))
    fixtures.append((s2, Family(Point(s2, 2, 3), Moving(1, 0, -1), IntRange(None, 0)), None))
    fixtures.append((s3, Family(Point(s3, 2, None), Moving(1, 0, -3), IntRange(0, None)), None))
    fixtures.append((s3, Family(Point(s3, 1, None), Moving(2, 4, 1), IntRange(-2, None)), None))
    fixtures.append((s3, Family(Point(s3, 3, None), Moving(3, 7, 1), IntRange(1, None)), None))
    fixtures.append((s2, Family(Point(s2, 1, 5), Moving(1, 7, 1), IntRange(0, None)), None))
    fixtures.append((s2, Family(Point(s2, 1, 5), Moving(1, 3, 1), IntRange(None, 0)), -1))
    fixtures.append((s1, Family(Point(s1, 1, None), Moving(1, 0, 2), IntRange(0, None)), None))
    fixtures.append((s2, Family(Point(s2, 2, None), Moving(2, -4, -2), IntRange(0, None)), None))
    fixtures.append((s2, Family(Point(s2, 2, None), Moving(2, 4, 2), IntRange(0, None)), None))
    fixtures.append((s3, Family(Point(s3, 1, -2), Moving(3, 0, 1), IntRange(0, None)), None))
    fixtures.append((s3, Family(Point(s3, 1, -2), Moving(3, 0, -1), IntRange(None, 5)), -1))
    fixtures.append((s1, Family(Point(s1, 1, 9), Moving(1, 11, 1), IntRange(0, None)), None))
    fixtures.append((s2, Family(Point(s2, 1, None), Moving(1, 3, 1), IntRange(2, None)), None))
    fixtures.append((s2, Family(Point(s2, 2, None), Moving(1, 3, -1), IntRange(None, -1)), -1))
    return fixtures


@_criterion("9 limits of fan families")
def criterion_9_limit_arcs(level: str = "desk"):
    failures: list[str] = []
    checked = 0
    for surface, fam, end in _limit_fixtures():
        checked += 1
        res = limit_of_family(surface, fam, end=end)
        mov = fam.moving_endpoints[0]
        p = fam.fixed_endpoint
        direction = end if end is not None else (1 if fam.domain.hi is None else -1)
        t_far = 900 * direction
        x1 = Point(surface, mov.interval, mov.pos_at(t_far))
        x2 = Point(surface, mov.interval, mov.pos_at(t_far + direction))
        x3 = Point(surface, mov.interval, mov.pos_at(t_far + 2 * direction))
        q = res.point if res.kind is LimitKind.ACCUMULATION_POINT else (
            res.arc.other_endpoint(p) if res.kind is LimitKind.ARC else None
        )
        if q is not None:
            # monotone approach from one fixed side, checked with cyclic
            # order only: successive terms stay strictly between their
            # predecessor and the claimed limit
            ascending = between(x1, x2, q) and between(x2, x3, q)
            descending = between(q, x2, x1) and between(q, x3, x2)
            if not (ascending or descending):
                failures.append(f"moving endpoint does not approach {format_point(q)}")
                continue
            if step(q, 1) != q:
                failures.append(f"claimed limit {format_point(q)} is not a fixed point of the successor")
                continue
            expected_kind = LimitKind.ACCUMULATION_POINT if q == p else LimitKind.ARC
            if expected_kind != res.kind:
                failures.append(f"limit kind mismatch: got {res.kind}, expected {expected_kind}")
                continue
        if res.kind is LimitKind.ARC:
            t = Triangulation(surface, (fam,))
            checked += 1
            if not validate_non_crossing(t).ok:
                failures.append("fixture family crosses itself")
                continue
            extended = Triangulation(surface, (fam, Single(res.arc)))
            if not validate_non_crossing(extended).ok:
                failures.append(f"adding limit arc {format_arc(res.arc)} introduced a crossing")
    return checked, failures


@_criterion("10 flip involution and exchange rigidity")
def criterion_10_flip_involution(level: str = "desk"):
    failures: list[str] = []
    checked = 0
    for w in _mutability_windows(level):
        for T in window_brute_force(w):
            t = from_window_set(w, T)
            for a in sorted(T, key=arc_key):
                if not is_mutable(t, a):
                    continue
                checked += 1
                res = flip(t, a)
                back = flip(res.new_triangulation, res.new_arc)
                if back.new_arc != a:
                    failures.append(f"flip involution broken at {format_arc(a)}")
                    continue
                orig = {gen.arc for gen in t.generators}
                restored = {gen.arc for gen in back.new_triangulation.generators}
                if orig != restored:
                    failures.append(f"double flip changed the triangulation at {format_arc(a)}")
                if ext_dim(a, res.new_arc) != 1 or ext_dim(res.new_arc, a) != 1:
                    failures.append(f"diagonals of flip at {format_arc(a)} not mutually extending")
                for confl in res.conflations:
                    for m in confl.middle:
                        if m is None:
                            continue
                        if ext_dim(m, a) != 0 or ext_dim(m, res.new_arc) != 0:
                            failures.append(f"conflation middle {format_arc(m)} crosses a diagonal")
    return checked, failures


# Kept apart from canonical_lift on purpose: an independent route to the lift.
def _random_lift(rng: random.Random, g: Arc) -> Arc:
    target = canonical_lift(g).surface

    def lift(p: Point) -> Point:
        if p.pos is None:
            return Point(target, 2 * p.interval, rng.randint(-30, 30))
        return Point(target, 2 * p.interval - 1, p.pos)

    return Arc(lift(g.a), lift(g.b))


@_criterion("11 oracle lift independence")
def criterion_11_lift_independence(level: str = "desk"):
    failures: list[str] = []
    checked = 0
    rng = random.Random(0xACC)
    s2 = Surface(True, 2)
    arcs = window_arcs(Window.symmetric(s2, 4))
    acc_arcs = [a for a in arcs if a.a.pos is None or a.b.pos is None]
    n_pairs = 200 if level != "smoke" else 40
    n_lifts = 100 if level != "smoke" else 20
    pairs = []
    while len(pairs) < n_pairs:
        g = rng.choice(acc_arcs if rng.random() < 0.7 else arcs)
        d = rng.choice(acc_arcs if rng.random() < 0.7 else arcs)
        pairs.append((g, d))
    for g, d in pairs:
        reference = ext_dim_oracle(g, d)
        for _ in range(n_lifts):
            checked += 1
            got = ext_dim_oracle(g, d, lift_g=_random_lift(rng, g), lift_d=_random_lift(rng, d))
            if got != reference:
                failures.append(f"lift dependence for {format_arc(g)} vs {format_arc(d)}")
                break
    return checked, failures


ALL_CRITERIA = [
    criterion_1_oracle_equivalence,
    criterion_2_symmetry,
    criterion_3_hom_asymmetry,
    criterion_4_containment,
    criterion_5_window_weak_ct,
    criterion_6_mutability_trichotomy,
    criterion_7_fountain_behaviour,
    criterion_8_fan_finiteness,
    criterion_9_limit_arcs,
    criterion_10_flip_involution,
    criterion_11_lift_independence,
]


def run_all(level: str = "desk") -> list[CriterionResult]:
    return [crit(level) for crit in ALL_CRITERIA]
