"""The order-type enumeration behind acceptance criteria 1, 2 and 4.

``type_key`` maps an arc pair to the circuit keys of its type's
representative by a route independent of ``pair_types``: it collapses the
pair's own endpoint keys instead of building supports from slots and gaps.
The containment test shows that every pair of the bound-6 windows has a type
in the enumeration; the stretch test shows that a representative answers for
every pair of its type, which is what lets the batteries check one pair per
type instead of a sample.
"""

import functools
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from infgon.acceptance import pair_types
from infgon.arcs import Arc
from infgon.homs import ext_case, ext_dim, ext_dim_oracle
from infgon.surface import Point, Surface
from infgon.triangulation import Window, window_arcs

CAP = 3


def _keys(g: Arc, d: Arc) -> tuple:
    return (g.ka, g.kb, d.ka, d.kb)


def type_key(g: Arc, d: Arc) -> tuple:
    """Keys of the pair's type representative: each interval starts at 0, gaps capped at CAP."""
    moved = {}
    last = None
    for slot, pos in sorted(set(_keys(g, d))):
        if slot % 2 == 0:
            moved[(slot, pos)] = (slot, pos)  # an accumulation point stays put
        elif last is not None and last[0] == slot:
            moved[(slot, pos)] = (slot, moved[last][1] + min(pos - last[1], CAP))
        else:
            moved[(slot, pos)] = (slot, 0)
        last = (slot, pos)
    return tuple(moved[k] for k in _keys(g, d))


@functools.lru_cache(maxsize=None)
def _types(n: int) -> tuple[tuple[Arc, Arc], ...]:
    return tuple(pair_types(n))


def test_each_type_is_enumerated_once_as_its_representative():
    for n in (1, 2, 3):
        keys = [_keys(g, d) for g, d in _types(n)]
        assert len(set(keys)) == len(keys)
        assert all(type_key(g, d) == _keys(g, d) for g, d in _types(n))


def test_window_pairs_fall_into_enumerated_types():
    # the bound-6 windows hold the 79**2 + 354**2 = 131,557 ordered pairs that
    # the batteries sampled on completed:1 and completed:2; a four-point type
    # spans at most 10 positions of one interval and these windows hold 13,
    # so they meet every type.  The completed:3 window is kept small for time.
    for n, bound in ((1, 6), (2, 6), (3, 2)):
        arcs = window_arcs(Window.symmetric(Surface(True, n), bound))
        found = {type_key(g, d) for g, d in itertools.product(arcs, repeat=2)}
        enumerated = {_keys(g, d) for g, d in _types(n)}
        if bound == 6:
            assert found == enumerated
        else:
            assert found <= enumerated


def _answers(g: Arc, d: Arc) -> tuple:
    return ext_dim(g, d), ext_dim(d, g), ext_dim_oracle(g, d), ext_case(g, d)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 6), data=st.data())
def test_stretched_pairs_answer_like_their_type(n, data):
    types = _types(n)
    picks = data.draw(st.lists(st.integers(0, len(types) - 1), min_size=50, max_size=50), label="types")
    offsets = data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n), label="offsets")
    extras = data.draw(st.lists(st.integers(0, 40), min_size=3 * n, max_size=3 * n), label="extras")
    for g, d in (types[i] for i in picks):
        # translate each interval, and widen each capped gap by its own extra
        moved = {}
        for k in range(1, n + 1):
            positions = sorted({p.pos for p in (g.a, g.b, d.a, d.b) if p.interval == k and p.pos is not None})
            pos = offsets[k - 1]
            for i, old in enumerate(positions):
                if i:
                    gap = old - positions[i - 1]
                    pos += gap + (extras[3 * (k - 1) + i - 1] if gap == CAP else 0)
                moved[(k, old)] = pos

        def move(p: Point) -> Point:
            return p if p.pos is None else Point(p.surface, p.interval, moved[(p.interval, p.pos)])

        sg, sd = Arc(move(g.a), move(g.b)), Arc(move(d.a), move(d.b))
        assert type_key(sg, sd) == _keys(g, d)
        assert _answers(sg, sd) == _answers(g, d), (sg, sd)
