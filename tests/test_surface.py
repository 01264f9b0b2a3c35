import copy
import os
import pickle
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings

from conftest import surface_and_points
from infgon import surface as surface_module
from infgon.arcs import lift_surface, squeeze_surface
from infgon.surface import (
    MixedSurfaceError,
    Point,
    Surface,
    adjacent,
    cyclic_ordered,
    format_point,
    parse_point,
    parse_surface,
    step,
)

C1 = Surface(True, 1)
C2 = Surface(True, 2)
U1 = Surface(False, 1)


def test_surface_validation():
    with pytest.raises(ValueError):
        Surface(True, 0)
    with pytest.raises(ValueError):
        Point(C2, 3, 0)
    with pytest.raises(ValueError):
        Point(U1, 1, None)


def test_cyclic_ordered_examples():
    base = C2.point(1, 0)
    assert cyclic_ordered(base, [C2.point(1, 3), C2.accumulation(1), C2.point(2, -5)])
    assert not cyclic_ordered(base, [C2.point(2, 0), C2.point(1, 3)])
    assert cyclic_ordered(base, [base, base])


def test_cyclic_ordered_mixed_surfaces():
    with pytest.raises(MixedSurfaceError):
        cyclic_ordered(C1.point(1, 0), [C2.point(1, 1)])


def test_step_examples():
    assert step(C1.point(1, 4), 1) == C1.point(1, 5)
    assert step(C1.accumulation(1), 1) == C1.accumulation(1)
    assert step(step(C1.point(1, 4), 1), -1) == C1.point(1, 4)
    with pytest.raises(ValueError):
        step(C1.point(1, 0), 2)


def test_adjacent_examples():
    assert adjacent(C1.point(1, 4), C1.point(1, 5))
    assert not adjacent(C1.point(1, 4), C1.accumulation(1))
    assert not adjacent(C1.point(1, 4), C1.point(1, 4))


def test_adjacent_near_accumulation_window():
    # between any regular point and the accumulation point sit more marked
    # points, confirmed by scanning a window of successors
    p = C1.point(1, 4)
    a = C1.accumulation(1)
    walker = step(p, 1)
    seen_between = 0
    for _ in range(10):
        if cyclic_ordered(p, [walker, a]) and walker != a:
            seen_between += 1
        walker = step(walker, 1)
    assert seen_between == 10


@given(surface_and_points(3))
@settings(max_examples=300)
def test_orientation_trichotomy(data):
    _, (x, y, z) = data
    if len({x, y, z}) < 3:
        return
    assert cyclic_ordered(x, [y, z]) != cyclic_ordered(x, [z, y])


@given(surface_and_points(2))
def test_step_is_bijective(data):
    _, (p, q) = data
    assert step(step(p, 1), -1) == p
    assert step(step(q, -1), 1) == q


@given(surface_and_points(4))
@settings(max_examples=300)
def test_cyclic_order_is_successor_invariant(data):
    _, pts = data
    base, chain = pts[0], pts[1:]
    shifted = cyclic_ordered(step(base, 1), [step(p, 1) for p in chain])
    assert cyclic_ordered(base, chain) == shifted


@given(surface_and_points(4))
@settings(max_examples=300)
def test_cyclic_order_transitivity(data):
    # a weak chain may pass through the base point itself at either end of
    # the circuit, so transitivity is asserted away from the base
    _, (x, a, b, c) = data
    if x in (a, b, c):
        return
    if cyclic_ordered(x, [a, b]) and cyclic_ordered(x, [b, c]):
        assert cyclic_ordered(x, [a, b, c])


@given(surface_and_points(1))
def test_point_roundtrip(data):
    surface, (p,) = data
    assert parse_point(surface, format_point(p)) == p


def test_surface_roundtrip():
    for text in ("completed:1", "completed:3", "uncompleted:2"):
        assert parse_surface(text).describe() == text
    with pytest.raises(ValueError):
        parse_surface("disc:3")
    with pytest.raises(ValueError):
        parse_point(C1, "1;0")


def test_surfaces_are_interned():
    s = Surface(True, 2)
    assert Surface(True, 2) is s
    assert Surface(1, 2) is s
    assert parse_surface("completed:2") is s
    assert squeeze_surface(lift_surface(s)) is s
    assert copy.copy(s) is s
    assert copy.deepcopy(s) is s
    assert pickle.loads(pickle.dumps(s)) is s
    assert pickle.loads(pickle.dumps(s.point(1, 0))).surface is s
    for completed in (True, False):
        for n in (1, 2, 3, 5):
            assert hash(Surface(completed, n)) == hash((completed, n))
    with pytest.raises(ValueError):
        Surface(True, 0)
    assert (True, 0) not in surface_module._SURFACES
    with pytest.raises(AttributeError):
        s.intervals = 3
    with pytest.raises(AttributeError):
        del s.completed
    assert s.intervals == 2 and s.completed is True


def test_threads_building_one_surface_share_it():
    """Surfaces made at once in several threads are still one object each."""
    sizes = range(1000, 1200)
    seen: list[list[Surface]] = [[] for _ in range(6)]
    start = threading.Barrier(len(seen))

    def build(out):
        start.wait(timeout=10)
        out.extend(Surface(False, n) for n in sizes)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(out,)) for out in seen]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=10)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    for i, n in enumerate(sizes):
        assert all(out[i] is Surface(False, n) for out in seen)


_HASH_PROBE = """
from infgon.arcs import format_arc
from infgon.surface import Surface
from infgon.triangulation import Window, window_arcs, window_brute_force

for n in (1, 2, 3):
    s = Surface(True, n)
    print([hash(s.accumulation(k)) for k in range(1, n + 1)])
    print([hash(a) for a in window_arcs(Window.symmetric(s, 1))])
for arcs in window_brute_force(Window.symmetric(Surface(True, 1), 2)):
    print([format_arc(a) for a in arcs])
"""


def test_hashes_do_not_depend_on_the_process():
    """Accumulation points, arcs ending at them and the sets holding them hash
    and iterate alike in every process."""
    src = os.path.dirname(os.path.dirname(surface_module.__file__))
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        run = subprocess.run([sys.executable, "-c", _HASH_PROBE], env=env, capture_output=True, text=True, check=True)
        outs.append(run.stdout)
    assert outs[0] == outs[1] and outs[0].count("\n") > 6
