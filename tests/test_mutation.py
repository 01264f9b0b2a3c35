"""Frames, approximations, flips and module generators."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from infgon import acceptance, limits, triangulation
from infgon.affine import IntRange
from infgon.arcs import Arc, arc_key, cross_transverse, format_arc, parse_arc, shift_arc
from infgon.cli import main
from infgon.homs import ext_dim, hom_dim
from infgon.mutation import (
    UNDEFINED,
    MutabilityError,
    NotFinitelyGenerated,
    _merge_ranges,
    approximate,
    flip,
    is_mutable,
    mutability_report,
    quad_frame,
    right_module_generators,
)
from infgon.surface import Point, Surface, adjacent
from infgon.triangulation import (
    CERTIFIED_MAXIMAL,
    CrossingError,
    DuplicateArcError,
    Family,
    Moving,
    Progression,
    Side,
    Single,
    Triangulation,
    TriangulationError,
    Window,
    arc_crossing_in,
    build_fountain,
    canonical_zigzag,
    from_window_set,
    neighbor_scan,
    validate_non_crossing,
    window_arcs,
    window_brute_force,
    window_check,
)

C1 = Surface(True, 1)
C2 = Surface(True, 2)


def fountain1():
    return build_fountain(C1, C1.point(1, 0))


def test_quad_frame_fountain_regular():
    t = fountain1()
    f = quad_frame(t, parse_arc(C1, "1:0-1:5"))
    assert (f.u_left, f.u_right) == (C1.point(1, 4), C1.point(1, 6))
    assert (f.v_left, f.v_right) == (C1.point(1, 6), C1.point(1, 4))


def test_quad_frame_fountain_accumulation():
    t = fountain1()
    f = quad_frame(t, parse_arc(C1, "1:0-a1"))
    assert f.u_left is UNDEFINED and f.u_right is UNDEFINED
    assert f.v_left == C1.accumulation(1) and f.v_right == C1.accumulation(1)


def test_quad_frame_needs_certificate():
    t = Triangulation(C1, (Single(parse_arc(C1, "1:0-1:2")),))
    with pytest.raises(TriangulationError):
        quad_frame(t, parse_arc(C1, "1:0-1:2"))


def test_quad_frame_square_window():
    w = Window.of_points([C1.point(1, i) for i in range(4)])
    diag = parse_arc(C1, "1:0-1:2")
    T = next(S for S in window_brute_force(w) if diag in S)
    t = from_window_set(w, T)
    f = quad_frame(t, diag)
    assert f.u_left == f.v_right == C1.point(1, 1)
    assert f.u_right == f.v_left == C1.point(1, 3)
    assert is_mutable(t, diag)
    assert flip(t, diag).new_arc == parse_arc(C1, "1:1-1:3")


def test_single_generators_never_reach_the_solver(monkeypatch):
    """Pairs of fixed arcs are decided without the symbolic solver, while a
    flip still checks every pair of the new triangulation."""
    import infgon.triangulation as tri

    calls = {"solver": 0, "pairs": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(tri, "conjunction_model", counting("solver", tri.conjunction_model))
    monkeypatch.setattr(tri, "crossing_witness", counting("pairs", tri.crossing_witness))
    w = Window.of_points([C1.point(1, i) for i in range(-4, 4)] + [C1.point(1, None)])
    assert len(w.points) == 9
    T = window_brute_force(w)[0]
    t = from_window_set(w, T)
    a = next(a for a in sorted(T, key=arc_key) if is_mutable(t, a))
    calls["pairs"] = 0
    res = flip(t, a)
    n = len(res.new_triangulation.generators)
    assert calls["pairs"] >= n * (n - 1) // 2
    back = flip(res.new_triangulation, res.new_arc)
    assert back.new_arc == a
    assert {g.arc for g in back.new_triangulation.generators} == set(T)
    assert calls["solver"] == 0
    # a fixed arc against a family is a question in one parameter: window
    # maximality and crossing queries on fountains and the zigzag need no solver
    cases = [(build_fountain(s, s.point(1, 0)), Window.symmetric(s, 2)) for s in (C1, C2, Surface(True, 3))]
    cases.append((canonical_zigzag(), Window.symmetric(C1, 6)))
    calls["solver"] = 0
    for t, w in cases:
        assert window_check(t, w)
        for b in window_arcs(w):
            hit = arc_crossing_in(t, b)
            assert hit is None or cross_transverse(hit, b)
    assert calls["solver"] == 0


def test_scans_never_build_the_mirror_image(monkeypatch):
    """Right scans read the triangulation they are given; no reversed copy is built."""
    import infgon.triangulation as tri

    def refuse(t):
        raise AssertionError("reverse_triangulation called")

    monkeypatch.setattr(tri, "reverse_triangulation", refuse)
    w = Window.of_points([C1.point(1, i) for i in range(-4, 4)] + [C1.point(1, None)])
    T = window_brute_force(w)[0]
    window_t = from_window_set(w, T)
    cases = [
        (window_t, next(a for a in sorted(T, key=arc_key) if is_mutable(window_t, a))),
        (build_fountain(C2, C2.point(2, 1)), parse_arc(C2, "2:1-2:3")),
    ]
    for t, a in cases:
        f = quad_frame(t, a)
        assert UNDEFINED not in f.entries()
        for side in (Side.LEFT, Side.RIGHT):
            assert approximate(t, a, side).exists
        res = flip(t, a)
        back = flip(res.new_triangulation, res.new_arc)
        assert back.new_arc == a and back.new_triangulation.contains(a)


def test_scans_never_check_membership_separately(monkeypatch):
    """neighbor_scan learns whether the arc is in t from its partner pass."""

    def refuse(self, arc):
        raise AssertionError("Triangulation.contains called")

    w = Window.of_points([C1.point(1, i) for i in range(-4, 4)] + [C1.point(1, None)])
    T = window_brute_force(w)[0]
    window_t = from_window_set(w, T)
    cases = [(window_t, a) for a in sorted(T, key=arc_key)]
    cases.append((build_fountain(C2, C2.point(2, 1)), parse_arc(C2, "2:1-2:3")))
    monkeypatch.setattr(Triangulation, "contains", refuse)
    for t, a in cases:
        assert quad_frame(t, a).arc == a


def test_single_scans_read_the_endpoint_index(monkeypatch):
    """No scan decomposes the boundary into segments, and on Single generators
    a scan does not walk the generators either."""
    import infgon.homs as homs

    def refuse(*args):
        raise AssertionError("reached a per-segment or per-generator pass")

    w = Window.of_points([C1.point(1, i) for i in range(-4, 4)] + [C1.point(1, None)])
    t = from_window_set(w, window_brute_force(w)[7])
    with_families = [fountain1(), build_fountain(C2, C2.accumulation(1)), canonical_zigzag(C1)]
    for module in (homs, triangulation):  # and any binding imported by name
        monkeypatch.setattr(module, "open_interval_segments", refuse, raising=False)
    monkeypatch.setattr(Arc, "has_endpoint", refuse)
    for g in t.generators:
        for e in g.arc.endpoints:
            for side in (Side.LEFT, Side.RIGHT):
                assert neighbor_scan(t, g.arc, e, side).endpoint == e
    scans = 0
    for ft in with_families:
        for a in triangulation.window_arcs(Window.symmetric(ft.surface, 4)):
            if ft.contains(a):
                for e in a.endpoints:
                    for side in (Side.LEFT, Side.RIGHT):
                        scans += neighbor_scan(ft, a, e, side).endpoint == e
    assert scans > 100


def test_the_endpoint_index_is_invisible():
    """The index takes no part in equality, hashing, repr or JSON, survives
    copying and pickling, and is rebuilt by dataclasses.replace."""
    import copy
    import dataclasses
    import pickle

    w = Window.of_points([C1.point(1, i) for i in range(6)])
    t = from_window_set(w, window_brute_force(w)[0])
    twin = Triangulation(t.surface, t.generators, t.certificate)
    object.__setattr__(twin, "_ends", {})
    assert twin == t and hash(twin) == hash(t) == hash((t.surface, t.generators, t.certificate))
    assert repr(t) == f"Triangulation(surface={t.surface!r}, generators={t.generators!r}, certificate={t.certificate!r})"
    assert triangulation.triangulation_to_json(t) == {
        "surface": "completed:1",
        "generators": [{"single": format_arc(g.arc)} for g in t.generators],
        "certificate": {"window": [f"1:{i}" for i in range(6)]},
    }
    scans = [neighbor_scan(t, g.arc, g.arc.a, side) for g in t.generators for side in Side]
    for other in (copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert other == t and other._ends == t._ends and other._families == t._families
        assert [neighbor_scan(other, g.arc, g.arc.a, side) for g in t.generators for side in Side] == scans
    a = t.generators[0].arc
    smaller = dataclasses.replace(t, generators=t.generators[1:], certificate=None)
    assert t.contains(a) and not smaller.contains(a)
    assert sorted(smaller._ends) == sorted({k for g in smaller.generators for k in (g.arc.ka, g.arc.kb)})
    with pytest.raises(TriangulationError, match="not in the triangulation"):
        neighbor_scan(smaller, a, a.a, Side.LEFT)


def test_approximate_fountain():
    t = fountain1()
    res = approximate(t, parse_arc(C1, "1:0-a1"), Side.LEFT)
    assert not res.exists
    assert res.failed_scan is not None and res.failed_scan.progressions
    res = approximate(t, parse_arc(C1, "1:0-1:5"), Side.LEFT)
    assert res.exists
    assert res.summands == (parse_arc(C1, "1:0-1:4"),)
    res = approximate(t, parse_arc(C1, "1:0-1:5"), Side.RIGHT)
    assert res.exists
    assert res.summands == (parse_arc(C1, "1:0-1:6"),)


def test_mutability_fountain():
    t = fountain1()
    assert is_mutable(t, parse_arc(C1, "1:0-1:5"))
    ok, reason, _ = mutability_report(t, parse_arc(C1, "1:0-a1"))
    assert not ok and reason == "NoExtremum"


def test_flip_checks_crossings_in_one_pass(monkeypatch):
    t = fountain1()
    calls = []
    real = triangulation.crossing_witness
    monkeypatch.setattr(triangulation, "crossing_witness", lambda *args, **kw: calls.append(args) or real(*args, **kw))
    res = flip(t, parse_arc(C1, "1:0-1:5"))
    g = len(res.new_triangulation.generators)
    assert 0 < len(calls) <= g * (g + 1) // 2
    calls.clear()
    assert validate_non_crossing(res.new_triangulation).ok
    assert calls == []


def _flip_as_built(t, a):
    """The flip of a in t, after checking that it equals the triangulation
    built from scratch from its generators, index and crossing included."""
    res = flip(t, a)
    nt = res.new_triangulation
    built = Triangulation(t.surface, nt.generators, t.certificate)
    assert nt == built and nt.generators[-1] == Single(res.new_arc)
    assert (nt._ends, nt._families, nt._crossing) == (built._ends, built._families, built._crossing)
    return res


def test_a_flip_equals_the_triangulation_built_from_scratch():
    """A flip checks only the pairs that meet the new arc and the pairs of
    fixed arcs, and still builds what construction builds, errors included."""
    t = fountain1()
    a = parse_arc(C1, "1:0-1:5")
    kept = triangulation._remove_arc(t, a)
    # 1:1-1:3 crosses 1:0-1:2 and 1:0-1:4 repeats itself: instances of a piece of the cut family
    for token, error in (("1:1-1:3", CrossingError), ("1:0-1:4", DuplicateArcError)):
        new_arc = parse_arc(C1, token)
        with pytest.raises(error) as built:
            Triangulation(C1, kept + (Single(new_arc),), t.certificate)
        with pytest.raises(error) as flipped:
            triangulation._replace_arc(t, a, new_arc)
        assert str(flipped.value) == str(built.value) and str(built.value)
        assert getattr(flipped.value, "witness", None) == getattr(built.value, "witness", None)

    cases = []
    for s in (C1, C2, Surface(True, 3)):
        bases = [s.point(1, p) for p in range(-2, 3)] + [s.accumulation(k) for k in range(1, s.intervals + 1)]
        cases += [(build_fountain(s, base), Window.symmetric(s, 3)) for base in bases]
    cases.append((canonical_zigzag(), Window.symmetric(C1, 6)))
    w = Window.symmetric(C1, 2)
    cases += [(from_window_set(w, T), w) for T in window_brute_force(w)]
    flips = 0
    for t, w in cases:
        for a in sorted(t.arcs_in_window(w), key=arc_key):
            if not is_mutable(t, a):
                continue
            res = _flip_as_built(t, a)
            nt = res.new_triangulation
            b = next((b for b in sorted(nt.arcs_in_window(w), key=arc_key) if b != res.new_arc and is_mutable(nt, b)), None)
            if b is not None:
                _flip_as_built(nt, b)
            flips += 1 + (b is not None)
    assert flips > 500


def test_flips_of_families_make_no_solver_call(monkeypatch):
    """A flip re-checks no pair of inherited generators that involves a
    family, so on fountains and the zigzag it needs no two-variable solve and
    no family degeneracy check."""

    def refuse(*args, **kwargs):
        raise AssertionError("a flip reached the solver or a family's own checks")

    cases = [build_fountain(s, s.point(1, 0)) for s in (C1, C2, Surface(True, 3))]
    cases += [build_fountain(s, s.accumulation(1)) for s in (C1, C2, Surface(True, 3))]
    cases.append(canonical_zigzag())
    monkeypatch.setattr(triangulation, "conjunction_model", refuse)
    monkeypatch.setattr(triangulation, "_invalid_family_param", refuse)
    flips = 0
    for t in cases:
        w = Window.symmetric(t.surface, 3)
        for a in sorted(t.arcs_in_window(w), key=arc_key):
            if is_mutable(t, a):
                res = flip(t, a)
                back = flip(res.new_triangulation, res.new_arc)
                assert back.new_arc == a
                flips += 2
    assert flips > 100


def test_a_flip_over_the_generator_limit_is_refused(monkeypatch, capsys):
    t = fountain1()
    a = parse_arc(C1, "1:0-1:5")
    count = len(flip(t, a).new_triangulation.generators)
    assert count > len(t.generators)
    monkeypatch.setattr(limits, "GENERATOR_LIMIT", count - 1)
    message = f"triangulation has {count} generators, limit is {count - 1}"
    with pytest.raises(limits.ResourceLimitError) as err:
        flip(t, a)
    assert str(err.value) == message
    assert main(["flip", "--triangulation", "fountain(completed:1,1:0)", "--arc", "1:0-1:5"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_flip_fountain_and_surgery():
    t = fountain1()
    a = parse_arc(C1, "1:0-1:5")
    res = flip(t, a)
    assert res.new_arc == parse_arc(C1, "1:4-1:6")
    nt = res.new_triangulation
    assert nt.certificate == CERTIFIED_MAXIMAL
    assert nt.contains(res.new_arc) and not nt.contains(a)
    assert nt.contains(parse_arc(C1, "1:0-1:4")) and nt.contains(parse_arc(C1, "1:0-1:6"))
    assert validate_non_crossing(nt).ok
    back = flip(nt, res.new_arc)
    assert back.new_arc == a
    assert back.new_triangulation.contains(a)
    # flipping a non-mutable arc raises with the reason attached
    with pytest.raises(MutabilityError) as err:
        flip(t, parse_arc(C1, "1:0-a1"))
    assert err.value.reason == "NoExtremum"
    # the witness is the first unattained scan: the fan running on from 1:2
    witness = err.value.witness
    assert (witness.endpoint, witness.side, witness.singles) == (C1.point(1, 0), Side.LEFT, ())
    assert witness.progressions == (Progression(1, 2, 1, IntRange(0, None)),)
    assert witness.extremum is None and not witness.empty


def test_flip_conflation_pattern():
    t = fountain1()
    res = flip(t, parse_arc(C1, "1:0-1:5"))
    first, second = res.conflations
    assert first.start == parse_arc(C1, "1:0-1:5") and first.end == res.new_arc
    assert second.start == res.new_arc and second.end == parse_arc(C1, "1:0-1:5")
    assert ext_dim(first.start, first.end) == 1
    for confl in res.conflations:
        for m in confl.middle:
            if m is not None:
                assert ext_dim(m, first.start) == 0
                assert ext_dim(m, first.end) == 0


def test_module_generators_fountain_single_fan():
    t = fountain1()
    gens = right_module_generators(t, parse_arc(C1, "1:2-1:7"))
    assert gens == [parse_arc(C1, "1:0-1:3")]
    # maps from every supported arc reach the generator
    for w in (4, 5, 6):
        assert hom_dim(Arc(C1.point(1, 0), C1.point(1, w)), gens[0]) == 1


def test_module_generators_limit_arc_case():
    t = fountain1()
    g = parse_arc(C1, "1:-5-a1")
    gens = right_module_generators(t, g)
    assert isinstance(gens, list)
    assert parse_arc(C1, "1:0-a1") in gens


def test_module_generators_small_and_empty_support():
    t = fountain1()
    # the only fountain arc mapping into the shift of {1:1, 1:3} is {1:0, 1:2}
    gens = right_module_generators(t, parse_arc(C1, "1:1-1:3"))
    assert gens == [parse_arc(C1, "1:0-1:2")]
    # an arc straddling the base is crossed by the whole fountain, yet one
    # generator suffices
    gens = right_module_generators(t, parse_arc(C1, "1:-1-1:1"))
    assert gens == [parse_arc(C1, "1:0-1:2")]
    # arcs of the fountain itself receive nothing: empty support, zero object
    gens = right_module_generators(t, parse_arc(C1, "1:0-1:5"))
    assert gens == []


def _negate_parameter(t):
    """t with every family reparametrised by t -> -t: the same arcs."""
    gens = []
    for gen in t.generators:
        if isinstance(gen, Family):
            neg = lambda e: Moving(e.interval, e.base, -e.stride) if isinstance(e, Moving) else e
            lo, hi = gen.domain.lo, gen.domain.hi
            gen = Family(neg(gen.e0), neg(gen.e1), IntRange(None if hi is None else -hi, None if lo is None else -lo))
        gens.append(gen)
    return Triangulation(t.surface, tuple(gens), t.certificate)


def _restride_across_base(t):
    """t, a fountain at a regular base p, with its two fans on p's own interval
    regrouped into stride-4 families: the same arcs.  The family at p-6, p-2,
    p+2, p+6 jumps over p."""
    p = t.generators[0].fixed_endpoint
    k, b = p.interval, p.pos
    gens = [gen for gen in t.generators if not (isinstance(gen, Family) and gen.moving_endpoints[0].interval == k)]
    gens.append(Family(p, Moving(k, b - 6, 4), IntRange(0, 3)))
    for start in (3, 4, 5, 10):
        gens.append(Family(p, Moving(k, b + start, 4), IntRange(0, None)))
        gens.append(Family(p, Moving(k, b - start, -4), IntRange(0, None)))
    return Triangulation(t.surface, tuple(gens), t.certificate)


def test_module_generators_do_not_depend_on_the_parametrisation():
    """Reparametrising every family by t -> -t turns runs unbounded above into
    runs unbounded below, and regrouping a fountain's fans into stride-4
    families makes one jump over the base; neither changes any answer.  The
    re-strided fountains are asked the arcs of a smaller window, for time."""
    for n in (1, 2, 3):
        s = Surface(True, n)
        queries = window_arcs(Window.symmetric(s, 4))
        near = window_arcs(Window.symmetric(s, 2))
        for k in range(1, n + 1):
            for base in (s.point(k, 0), s.point(k, 3), s.accumulation(k)):
                t = build_fountain(s, base)
                expected = {g: right_module_generators(t, g) for g in queries}
                presentations = [(_negate_parameter(t), queries)]
                if base.pos is not None:
                    presentations.append((_restride_across_base(t), near))
                for other, asked in presentations:
                    for g in asked:
                        assert right_module_generators(other, g) == expected[g], (base, g)


def test_module_generators_of_a_fan_missing_its_limit_arc():
    """Dropping 1:0-a1 from the fountain and still claiming maximality leaves
    the fan at 1:0 with no limit arc, so the crossing query is refused."""
    t = fountain1()
    false_claim = Triangulation(C1, tuple(g for g in t.generators if g != Single(parse_arc(C1, "1:0-a1"))), t.certificate)
    res = right_module_generators(false_claim, parse_arc(C1, "1:-1-1:1"))
    assert isinstance(res, NotFinitelyGenerated)
    assert res.description == "fan support unbounded past any limit arc"


@st.composite
def _fan(draw):
    """A point p of completed:1..3 and distinct arcs ending at p."""
    s = Surface(True, draw(st.integers(1, 3)))
    point = st.builds(Point, st.just(s), st.integers(1, s.intervals), st.one_of(st.none(), st.integers(-6, 6)))
    p = draw(point)
    far = draw(st.lists(point.filter(lambda q: q != p and not adjacent(p, q)), min_size=1, max_size=6, unique=True))
    return p, [Arc(p, q) for q in far]


@given(_fan())
@example((C1.accumulation(1), [parse_arc(C1, "a1-1:3"), parse_arc(C1, "a1-1:-2"), parse_arc(C1, "a1-1:0")]))
@example((C1.point(1, 0), [parse_arc(C1, "1:0-1:-2"), parse_arc(C1, "1:0-a1"), parse_arc(C1, "1:0-1:2")]))
def test_arcs_sharing_an_endpoint_have_one_hom_sink(fan):
    """Arcs sharing an endpoint p have exactly one arc receiving a map from
    every other, the one whose far end comes first anticlockwise from p, so
    each group of `right_module_generators` contributes one generator."""
    p, arcs = fan
    kp = p.circuit_key()
    first = min(arcs, key=lambda a: (a.other_endpoint(p).circuit_key() < kp, a.other_endpoint(p).circuit_key()))
    assert [c for c in arcs if all(o == c or hom_dim(o, c) == 1 for o in arcs)] == [first]


def test_module_generators_zigzag_not_finite():
    z = canonical_zigzag(C1)
    res = right_module_generators(z, parse_arc(C1, "1:0-a1"))
    assert isinstance(res, NotFinitelyGenerated)
    assert res.param_range.lo is not None or res.param_range.hi is None


def test_module_generators_of_ladder_runs_are_verified():
    """The zigzag's families have no fixed endpoint, so their bounded support
    runs are loose arcs, grouped into fans at shared endpoints.  Every finite
    answer on the bound-5 window must generate the support seen at bound 12."""
    z = canonical_zigzag(C1)
    visible = z.arcs_in_window(Window.symmetric(C1, 12))
    finite = 0
    for g in window_arcs(Window.symmetric(C1, 5)):
        gens = right_module_generators(z, g)
        if isinstance(gens, NotFinitelyGenerated):
            continue
        finite += 1
        assert acceptance._verify_generation(visible, g, gens) is None, format_arc(g)
    assert finite == 45


_bounds = st.one_of(st.none(), st.integers(-8, 8))


@given(st.lists(st.builds(IntRange, _bounds, _bounds), max_size=5))
@example([IntRange(0, 2), IntRange(3, 5)])  # touching
@example([IntRange(4, 9), IntRange(0, 5), IntRange(9, 9)])  # overlapping, out of order
@example([IntRange(2, None), IntRange(None, -3), IntRange(-1, 0), IntRange(None, 1)])
def test_merge_ranges_is_the_union(ranges):
    """The merged ranges cover the union of the ranges, point by point over
    a box wider than the bounds, and are sorted, non-empty and separated by
    a gap, so touching and overlapping ranges become one."""
    merged = _merge_ranges(ranges)
    for v in range(-12, 13):
        assert any(r.contains(v) for r in merged) == any(r.contains(v) for r in ranges), v
    assert not any(r.is_empty for r in merged)
    for left, right in zip(merged, merged[1:]):
        assert left.hi is not None and right.lo is not None and left.hi + 1 < right.lo


def test_module_generators_need_certificate():
    """Only a claim of maximality everywhere will do: no claim, or a window claim, is refused."""
    w = Window.of_points([C1.point(1, i) for i in range(4)])
    for t in (Triangulation(C1, (Single(parse_arc(C1, "1:0-1:2")),)), from_window_set(w, window_brute_force(w)[0])):
        with pytest.raises(TriangulationError, match="^module generators need a certified maximal triangulation$"):
            right_module_generators(t, parse_arc(C1, "1:0-1:2"))


def test_accumulation_base_fountain_mutability():
    t = build_fountain(C1, C1.accumulation(1))
    a = Arc(C1.accumulation(1), C1.point(1, 5))
    assert is_mutable(t, a)
    res = flip(t, a)
    assert res.new_arc == parse_arc(C1, "1:4-1:6")


def test_approximation_factors_every_map_on_windows():
    # every nonzero map out of (into) an arc towards the rest of its window
    # triangulation factors through the returned left (right) approximation
    from infgon.arcs import canonical_lift
    from infgon.homs import sweep_contains, sweep_intervals
    from infgon.triangulation import Window, from_window_set, window_brute_force

    w = Window.of_points([C1.point(1, i) for i in range(7)])
    for T in window_brute_force(w):
        t = from_window_set(w, T)
        for a in T:
            left = approximate(t, a, Side.LEFT)
            right = approximate(t, a, Side.RIGHT)
            assert left.exists and right.exists
            la = canonical_lift(a)
            for gamma in T - {a}:
                lg = canonical_lift(gamma)
                if hom_dim(a, gamma) == 1:
                    sweep = sweep_intervals(la, lg)
                    assert any(
                        sweep_contains(sweep, canonical_lift(s)) for s in left.summands
                    ), (a, gamma)
                if hom_dim(gamma, a) == 1:
                    sweep = sweep_intervals(lg, la)
                    assert any(
                        sweep_contains(sweep, canonical_lift(s)) for s in right.summands
                    ), (a, gamma)
