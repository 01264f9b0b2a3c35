from hypothesis import given, settings
from hypothesis import strategies as st

from infgon import affine
from infgon.affine import (
    EMPTY_RANGE,
    FULL_RANGE,
    IntRange,
    LinIneq,
    cross_conjunctions,
    eq_conjunctions,
    orient_conjunctions,
    solve_1var,
    solve_1var_range,
    solve_2var,
    sym_lt,
)

ineq = st.builds(
    LinIneq,
    st.integers(-4, 4),
    st.integers(-4, 4),
    st.integers(-12, 12),
)


def brute_2var(ineqs, box):
    for i in range(box.lo, box.hi + 1):
        for j in range(box.lo, box.hi + 1):
            if all(q.eval(i, j) >= 0 for q in ineqs):
                return (i, j)
    return None


@given(st.lists(ineq, min_size=1, max_size=5))
@settings(max_examples=400)
def test_solver_matches_brute_force_on_boxes(ineqs):
    box = IntRange(-8, 8)
    expected = brute_2var(ineqs, box)
    got = solve_2var(ineqs, box, box)
    assert (got is None) == (expected is None)
    if got is not None:
        i, j = got
        assert all(q.eval(i, j) >= 0 for q in ineqs)
        assert box.contains(i) and box.contains(j)


@given(st.lists(ineq, min_size=1, max_size=4))
@settings(max_examples=300)
def test_solver_models_are_valid_unbounded(ineqs):
    got = solve_2var(ineqs)
    if got is not None:
        i, j = got
        assert all(q.eval(i, j) >= 0 for q in ineqs)


def test_thin_strip_without_integer_points():
    # 0 < 2i - 2j < 2 has rational but no integral solutions
    system = [LinIneq(2, -2, -1), LinIneq(-2, 2, 1)]
    assert solve_2var(system) is None
    # widening the strip admits a point
    system = [LinIneq(2, -2, -1), LinIneq(-2, 2, 2)]
    assert solve_2var(system) is not None


def test_modular_strip():
    # 3j = i with 1 <= i <= 2 forces no solution; 1 <= i <= 3 allows i=3, j=1
    system = [LinIneq(1, -3, 0), LinIneq(-1, 3, 0), LinIneq(1, 0, -1), LinIneq(-1, 0, 2)]
    assert solve_2var(system) is None
    system[3] = LinIneq(-1, 0, 3)
    assert solve_2var(system) == (3, 1)


@st.composite
def large_systems(draw):
    """Half-planes and thin strips with coefficients up to 10^4, drawn through
    or near a point of the box [-4, 4]^2: some share a factor, and some have
    an i-coefficient divisible by their j-coefficient."""
    i0, j0 = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
    out = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["any", "shared", "divisible"]))
        f = draw(st.sampled_from([2, 3, 12, 97])) if kind == "shared" else 1
        b = f * draw(st.integers(-(10**4) // f, 10**4 // f))
        if kind == "divisible":
            a = b * draw(st.integers(-3, 3))
        else:
            a = f * draw(st.integers(-(10**4) // f, 10**4 // f))
        spread = abs(a) + abs(b) + 1
        c = -(a * i0 + b * j0) + draw(st.integers(-spread, spread))
        out.append(LinIneq(a, b, c))
        if draw(st.booleans()):  # the strip c <= a*i + b*j + c <= c + width
            out.append(LinIneq(-a, -b, -c + draw(st.integers(0, 2))))
    return out


@given(large_systems())
@settings(max_examples=150, deadline=None)
def test_solver_matches_brute_force_with_large_coefficients(ineqs):
    box = IntRange(-4, 4)
    expected = brute_2var(ineqs, box)
    got = solve_2var(ineqs, box, box)
    assert (got is None) == (expected is None)
    if got is not None:
        i, j = got
        assert all(q.eval(i, j) >= 0 for q in ineqs)
        assert box.contains(i) and box.contains(j)


def test_empty_real_shadow_needs_no_splinter(monkeypatch):
    """S*i = (S-1)*j + 10^7 has no rational point with i, j in [0, 10], so
    the solver answers None before any splinter search."""

    def refuse(a, m):
        raise AssertionError("splinter search reached")

    monkeypatch.setattr(affine, "_mod_inverse", refuse)
    s = 10**5
    system = [LinIneq(s, 1 - s, -(10**7)), LinIneq(-s, s - 1, 10**7)]
    assert solve_2var(system, IntRange(0, 10), IntRange(0, 10)) is None


def test_one_var_range():
    assert solve_1var_range([(1, 0), (-1, 5)]) == IntRange(0, 5)
    assert solve_1var_range([(2, -3)]) == IntRange(2, None)
    assert solve_1var_range([(1, 0), (-1, -1)]) is None
    assert solve_1var([(0, -1)]) is None
    assert solve_1var([]) == 0


def test_int_range_helpers():
    assert FULL_RANGE.contains(-(10**9))
    assert EMPTY_RANGE.is_empty
    assert IntRange(2, 5).intersect(IntRange(4, None)) == IntRange(4, 5)
    assert IntRange(None, 3).intersect(IntRange(1, None)) == IntRange(1, 3)
    assert list(IntRange(2, 4).iterate()) == [2, 3, 4]


# symbolic points on two intervals: an accumulation point (even slot) or an
# affine position in i and j (odd slot), with small coefficients so that many
# comparisons are constant
sym_points = st.one_of(
    st.builds(lambda k: (2 * k, None), st.integers(1, 2)),
    st.builds(
        lambda k, a, b, c: (2 * k - 1, (a, b, c)),
        st.integers(1, 2),
        st.integers(-1, 1),
        st.integers(-1, 1),
        st.integers(-2, 2),
    ),
)


def _key(p, i: int, j: int) -> tuple[int, int]:
    slot, aff = p
    return (slot, 0) if aff is None else (slot, aff[0] * i + aff[1] * j + aff[2])


def _orient(a, b, c) -> bool:
    return (a < b) + (b < c) + (c < a) >= 2


def _holds(dnf, i: int, j: int) -> bool:
    return any(all(q.eval(i, j) >= 0 for q in conj) for conj in dnf)


@given(st.lists(sym_points, min_size=4, max_size=4))
@settings(max_examples=400)
def test_builders_decide_constant_atoms(pts):
    """No builder hands the solver an atom without an unknown, and the
    reduced DNFs still state their predicates at every point of a box."""
    p1, p2, q1, q2 = pts
    lt = sym_lt(p1, p2)
    assert isinstance(lt, bool) or (lt.a, lt.b) != (0, 0)
    orient = orient_conjunctions(p1, p2, q1)
    cross = cross_conjunctions((p1, p2), (q1, q2))
    eq = eq_conjunctions((p1, p2), (q1, q2))
    for conj in orient + cross + eq:
        assert all(isinstance(atom, LinIneq) and (atom.a, atom.b) != (0, 0) for atom in conj)
    for i in range(-3, 4):
        for j in range(-3, 4):
            k1, k2, l1, l2 = (_key(p, i, j) for p in pts)
            if not isinstance(lt, bool):
                assert (lt.eval(i, j) >= 0) == (k1 < k2)
            else:
                assert lt == (k1 < k2)
            assert _holds(orient, i, j) == _orient(k1, k2, l1)
            crossing = any(_orient(k1, r, k2) and _orient(k2, s, k1) for r, s in ((l1, l2), (l2, l1)))
            assert _holds(cross, i, j) == crossing
            assert _holds(eq, i, j) == ((k1, k2) == (l1, l2) or (k1, k2) == (l2, l1))
