"""Independent helpers the workloads check answers with.

These work on circuit keys directly: regular point ``k:i`` is ``(2k - 1, i)``
and accumulation point ``ak`` is ``(2k, 0)``, so one anticlockwise circuit
is lexicographic key order.  They never call into infgon beyond reading a
point's fields and instantiating generators; the CLI formatters are
re-implemented here so that expected command output does not come from the
code under test.
"""

from __future__ import annotations

import json

from infgon.triangulation import Single


def key(p) -> tuple[int, int]:
    return (2 * p.interval, 0) if p.pos is None else (2 * p.interval - 1, p.pos)


def orient(a, b, c) -> bool:
    """Pairwise distinct keys a, b, c occur anticlockwise."""
    return (a < b) + (b < c) + (c < a) == 2


def strictly_between(x, w, y) -> bool:
    """Key w lies in the open anticlockwise interval from key x to key y."""
    return w != x and w != y and x != y and orient(x, w, y)


def keys_cross(e: tuple, f: tuple) -> bool:
    """Two arcs given as sorted key pairs strictly interleave."""
    x, y = e
    u, v = f
    if u == x or u == y or v == x or v == y:
        return False
    return (x < u < y) != (x < v < y)


def arc_keys(arc) -> tuple:
    return tuple(sorted((key(arc.a), key(arc.b))))


def instances(t, radius: int) -> list:
    """Every instance of t whose family parameter lies in [-radius, radius]."""
    out = []
    for gen in t.generators:
        if isinstance(gen, Single):
            out.append(gen.arc)
            continue
        lo = -radius if gen.domain.lo is None else max(gen.domain.lo, -radius)
        hi = radius if gen.domain.hi is None else min(gen.domain.hi, radius)
        out.extend(gen.arc_at(t.surface, i) for i in range(lo, hi + 1))
    return out


def any_crossing(arc_key_list: list) -> bool:
    n = len(arc_key_list)
    for i in range(n):
        e = arc_key_list[i]
        for j in range(i + 1, n):
            if keys_cross(e, arc_key_list[j]):
                return True
    return False


def fmt_point(p) -> str:
    return f"a{p.interval}" if p.pos is None else f"{p.interval}:{p.pos}"


def fmt_arc(a) -> str:
    return f"{fmt_point(a.a)}-{fmt_point(a.b)}"


def cli_json(payload: dict) -> bytes:
    """The bytes the infgon command prints for one JSON payload."""
    return (json.dumps(payload, sort_keys=True) + "\n").encode()
