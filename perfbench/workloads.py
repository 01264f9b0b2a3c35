"""The library workloads: arc-pairs, window-flips and infinite-families.

Every workload builds its inputs from the seed through infgon's public API,
precomputes what it needs to check answers, and then hands the runner an
endless stream of operations.  ``run`` is the timed part and only calls the
program; ``check`` compares the answer with an independent route and returns
a failure message or None.  Calls go through module attributes
(``homs.ext_case``) so that the traced run sees them.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from math import gcd

from infgon import affine, arcs, homs, mutation, surface
from infgon import triangulation as tri

from common import arc_keys, any_crossing, instances, key, keys_cross, strictly_between

Surface = surface.Surface
Point = surface.Point
LEFT, RIGHT = tri.Side.LEFT, tri.Side.RIGHT
STRICT_DROPS = {homs.ExtCase.CLOCKWISE_AT_ACCUMULATION, homs.ExtCase.DOUBLE_ACCUMULATION_SELF}


# --- arc-pairs ----------------------------------------------------------------


class ArcPairs:
    """Ordered arc pairs of symmetric windows on completed:1..3, shifted by a seeded offset.

    The op stream is an affine permutation of all pairs (79, 354 and 825
    arcs at bound 6, 812k pairs), so every seed sees the same mix.  One pair
    in eight also runs ``hom_dim`` and ``factors_over`` on the uncompleted
    lifts and recomputes the oracle's answer from them.
    """

    name = "arc-pairs"
    round_len = 1
    SLICE = 8

    def __init__(self, seed: int, tiny: bool) -> None:
        rng = random.Random(seed)
        bound = 2 if tiny else 6
        offset = rng.randint(20, 120)  # positions stay small cached ints on every seed
        self.arc_sets = [self._window_arcs(n, bound, offset) for n in (1, 2, 3)]
        self.cum = list(itertools.accumulate(len(a) ** 2 for a in self.arc_sets))
        total = self.cum[-1]
        mult = rng.randrange(total // 3, 2 * total // 3) | 1
        while gcd(mult, total) != 1:
            mult += 2
        self.mult, self.add, self.total = mult, rng.randrange(total), total
        self.slice_residue = rng.randrange(self.SLICE)
        # warm-up pairs come from a window 100 positions away: no timed arc among them
        warm_sets = [
            [a for a in self._window_arcs(n, bound, offset + 100) if a.a.pos is not None or a.b.pos is not None]
            for n in (1, 2, 3)
        ]
        self.warm = []
        for k in range(200 if tiny else 3000):
            pool = warm_sets[k % 3]
            self.warm.append(("pair", rng.choice(pool), rng.choice(pool), k % self.SLICE == 0))
        self.description = {"pairs": total, "arcs": [len(a) for a in self.arc_sets], "offset": offset}

    @staticmethod
    def _window_arcs(n: int, bound: int, offset: int) -> list:
        window = tri.Window.symmetric(Surface(True, n), bound)
        return [arcs.shift_arc(a, offset) for a in tri.window_arcs(window)]

    def ops(self):
        for k in itertools.count():
            idx = (self.mult * k + self.add) % self.total
            n = bisect_right(self.cum, idx)
            pool = self.arc_sets[n]
            i, j = divmod(idx - (self.cum[n - 1] if n else 0), len(pool))
            yield ("pair", pool[i], pool[j], idx % self.SLICE == self.slice_residue)

    def run(self, op):
        _, g, d, sliced = op
        case = homs.ext_case(g, d)
        e = homs.ext_dim(g, d)
        e_rev = homs.ext_dim(d, g)
        h = homs.hom_dim(g, d)
        o = homs.ext_dim_oracle(g, d)
        lifted = None
        if sliced:
            lg = arcs.canonical_lift(g)
            sld = arcs.shift_arc(arcs.canonical_lift(d), 1)
            hl = homs.hom_dim(lg, sld)
            lifted = (hl,)
            if hl:
                lifted = (
                    hl,
                    homs.factors_over(lg, sld),
                    homs.factors_over(lg, sld, arcs.ArcClass.COLLAPSING),
                    homs.factors_over(lg, sld, arcs.ArcClass.PERSISTENT),
                )
        return case, e, e_rev, h, o, lifted

    def check(self, op, res):
        case, e, e_rev, h, o, lifted = res
        ambient = 0 if case is homs.ExtCase.NONE else 1
        if e != o:
            return f"oracle mismatch ext={e} oracle={o}"
        if e != e_rev:
            return "ext_dim not symmetric"
        if e > ambient:
            return "restricted ext exceeds ambient"
        if (ambient == 1 and e == 0) != (case in STRICT_DROPS):
            return f"strict drop with case {case}"
        if h not in (0, 1):
            return f"hom_dim {h}"
        if lifted is not None and lifted[0]:
            _, any_arc, collapsing, persistent = lifted
            if any_arc is not True:
                return "nonzero lifted map does not factor through any arc"
            if ambient and e != int(persistent and not collapsing):
                return "oracle recomputed from factors_over disagrees"
        return None


# --- window-flips ---------------------------------------------------------------


class _WindowEntry:
    """A window with its brute-force maximal sets, kept as bitmasks over the window arcs."""

    __slots__ = ("window", "arcs", "bit", "masks")

    def __init__(self, window, sets: list) -> None:
        self.window = window
        self.arcs = tri.window_arcs(window)
        self.bit = {a: 1 << i for i, a in enumerate(self.arcs)}
        self.masks = {self.mask(T) for T in sets}

    def mask(self, arcs_) -> int:
        return sum(self.bit[a] for a in arcs_)


class WindowFlips:
    """Maximal non-crossing sets of 6- to 12-point windows, built, scanned and flipped.

    Each round takes one triangulation per size class.  Classes up to 9
    points rotate over completed:1..3, drawing fresh windows as their sets
    run out; the 10-point class is one uncompleted:2 window, the 11-point
    class one completed:3 window and the 12-point class one completed:2
    window.  A window is one contiguous run of positions per interval, split
    evenly, plus every accumulation point, so every seed sees the same
    shapes at other positions.  ``window_brute_force`` of every window is
    precomputed, and the unique-replacement count of each arc is read from it.
    """

    name = "window-flips"
    ROTATING = ((True, 1), (True, 2), (True, 3))
    CLASSES = ((6, ROTATING), (7, ROTATING), (8, ROTATING), (9, ROTATING),
               (10, ((False, 2),)), (11, ((True, 3),)), (12, ((True, 2),)))
    TINY_CLASSES = ((6, ROTATING), (7, ((False, 2),)), (8, ((True, 1),)))

    def __init__(self, seed: int, tiny: bool) -> None:
        self.rng = random.Random(seed)
        self.used: set = set()
        self.classes = self.TINY_CLASSES if tiny else self.CLASSES
        self.round_len = len(self.classes)
        self.round = 0
        self.queues: dict[tuple, list] = {}
        rounds = 4 if tiny else 160
        for m, surfaces in self.classes:
            for s in surfaces:
                self._fill(m, s, -(-(rounds + 1) // len(surfaces)))
        # the first round is the warm-up; timed rounds never repeat its triangulations
        self.warm = self._round()
        self.description = {"classes": [m for m, _ in self.classes]}

    def _window(self, s, m: int):
        """A seeded window: an even split of m points into one run per interval, plus accumulation points."""
        regular = m - (s.intervals if s.completed else 0)
        cuts = [regular * k // s.intervals for k in range(s.intervals + 1)]
        while True:
            pts = []
            for k in range(1, s.intervals + 1):
                base = self.rng.randint(-8, 8)
                pts.extend(Point(s, k, base + i) for i in range(cuts[k] - cuts[k - 1]))
                if s.completed:
                    pts.append(Point(s, k, None))
            w = tri.Window.of_points(pts)
            if w.points not in self.used:
                self.used.add(w.points)
                return w

    def _fill(self, m: int, spec: tuple, need: int) -> None:
        """Queue at least ``need`` triangulations of class m on surface spec, from new windows."""
        queue = self.queues.setdefault((m, spec), [])
        while len(queue) < need:
            window = self._window(Surface(*spec), m)
            sets = tri.window_brute_force(window)
            entry = _WindowEntry(window, sets)
            picks = self.rng.sample(range(len(sets)), min(len(sets), need - len(queue)))
            queue.extend((entry, sets[i]) for i in picks)

    def _round(self) -> list:
        ops = []
        for m, surfaces in self.classes:
            spec = surfaces[self.round % len(surfaces)]
            queue = self.queues[(m, spec)]
            if not queue:
                self._fill(m, spec, 8)
            entry, T = queue.pop()
            ops.append(("window", entry, T, sorted(T, key=arc_keys)))
        self.round += 1
        return ops

    def ops(self):
        while True:
            yield from self._round()

    def run(self, op):
        _, entry, T, ordered = op
        t = tri.from_window_set(entry.window, T)
        out = []
        for a in ordered:
            m = mutation.is_mutable(t, a)
            left = mutation.approximate(t, a, LEFT)
            right = mutation.approximate(t, a, RIGHT)
            frame = mutation.quad_frame(t, a)
            there = back = None
            if m:
                there = mutation.flip(t, a)
                back = mutation.flip(there.new_triangulation, there.new_arc)
            out.append((a, m, left.exists, right.exists, frame, there, back))
        return out

    def check(self, op, res):
        _, entry, T, _ = op
        whole = entry.mask(T)
        for a, m, left_ok, right_ok, f, there, back in res:
            rest = whole ^ entry.bit[a]
            cands = [c for c in entry.arcs if c not in T and (rest | entry.bit[c]) in entry.masks]
            expected = len(cands) == 1
            if m != expected:
                return f"is_mutable={m} but brute force finds {len(cands)} replacements"
            closes = left_ok and right_ok and f.u_left == f.v_right and f.u_right == f.v_left
            if closes != expected:
                return "approximations and frame disagree with brute force"
            if not m:
                continue
            if there.new_arc != cands[0]:
                return "flip chose another arc than the unique replacement"
            if back.new_arc != a:
                return "flip is not an involution"
            if {g.arc for g in there.new_triangulation.generators} != (T - {a}) | {cands[0]}:
                return "flipped triangulation has the wrong arcs"
            if {g.arc for g in back.new_triangulation.generators} != set(T):
                return "double flip changed the triangulation"
        return None


# --- infinite-families ------------------------------------------------------------

UNDEF = "undefined"
P_BIG = 60  # family parameters enumerated for membership and scans
P_CROSS = 30  # family parameters enumerated for crossing searches
SCAN_R1, SCAN_R2 = 20, 30  # a scan extremum that moves between the radii is not attained


def _step(p, d: int):
    return p if p.pos is None else Point(p.surface, p.interval, p.pos + d)


def _rel(base_key, k) -> tuple:
    """Anticlockwise order of key k starting just after base_key."""
    return (0 if k > base_key else 1, k)


class _Known:
    """A triangulation with its instances enumerated for bounded brute force."""

    def __init__(self, t, certified: bool) -> None:
        self.t = t
        self.certified = certified
        self.insts = instances(t, P_BIG)
        self.inst_set = set(self.insts)
        self.cross_keys = [arc_keys(a) for a in instances(t, P_CROSS)]
        self.partners: dict = {}
        for a in self.insts:
            self.partners.setdefault(a.a, []).append(a.b)
            self.partners.setdefault(a.b, []).append(a.a)

    def side_partners(self, a, e, side, radius: int) -> list:
        f = a.b if e == a.a else a.a
        ke, kf = key(e), key(f)
        out = []
        for w in self.partners.get(e, ()):
            if w.pos is not None and abs(w.pos) > radius:
                continue
            kw = key(w)
            if strictly_between(ke, kw, kf) if side is LEFT else strictly_between(kf, kw, ke):
                out.append(w)
        return out

    def extremum(self, a, e, side):
        """(empty, extremum or UNDEF) of the scan at e, by brute force."""
        far = self.side_partners(a, e, side, SCAN_R2)
        if not far:
            return True, None
        near = self.side_partners(a, e, side, SCAN_R1)
        f = a.b if e == a.a else a.a
        if side is LEFT:
            pick = lambda pts: max(pts, key=lambda w: _rel(key(e), key(w)))
        else:
            pick = lambda pts: min(pts, key=lambda w: _rel(key(f), key(w)))
        top = pick(far)
        return False, (top if near and pick(near) == top else UNDEF)

    def frame(self, a) -> tuple:
        out = []
        for e, side, d in ((a.a, LEFT, 1), (a.a, RIGHT, -1), (a.b, LEFT, 1), (a.b, RIGHT, -1)):
            empty, ext = self.extremum(a, e, side)
            out.append(_step(e, d) if empty else ext)
        return tuple(out)

    def window_check(self, window) -> bool:
        for x in tri.window_arcs(window):
            if x in self.inst_set:
                continue
            kx = arc_keys(x)
            if not any(keys_cross(kx, k) for k in self.cross_keys):
                return False
        return True


def _scan_points(scan, radius: int) -> set:
    pts = {p for p in scan.singles if p.pos is None or abs(p.pos) <= radius}
    s = scan.arc.surface
    for pr in scan.progressions:
        lo = -P_BIG if pr.domain.lo is None else max(pr.domain.lo, -P_BIG)
        hi = P_BIG if pr.domain.hi is None else min(pr.domain.hi, P_BIG)
        for i in range(lo, hi + 1):
            pos = pr.base + pr.stride * i
            if abs(pos) <= radius:
                pts.add(Point(s, pr.interval, pos))
    return pts


class InfiniteFamilies:
    """Queries on fountains, zigzag ladders and seeded families with strides up to 5.

    Each round runs a fixed mix of query kinds; every kind cycles through
    its own seeded pool, whose answers were worked out in setup by bounded
    brute force over family instances (or box enumeration for the solver)
    and by the known answers: fountains are finitely generated and have no
    leapfrog, zigzags are not and do.
    """

    name = "infinite-families"
    ROUND = (
        "validate", "solve_2var", "contains", "neighbor_scan", "validate", "limit_of_family",
        "solve_2var", "window_check", "contains", "quad_frame", "approximate", "validate",
        "solve_2var", "neighbor_scan", "right_module_generators", "contains", "flip",
        "detect_leapfrog", "solve_2var", "limit_of_family", "approximate", "contains",
        "neighbor_scan", "window_check", "quad_frame",
    )
    round_len = len(ROUND)

    def __init__(self, seed: int, tiny: bool) -> None:
        rng = random.Random(seed)
        self.tiny = tiny
        self.pools = self._pools(rng, timed=True)
        self.warm = [(kind, *pool[0]) for kind, pool in self._pools(rng, timed=False).items()]
        self.description = {k: len(v) for k, v in self.pools.items()}

    # -- inputs

    def _fountains(self, rng, timed: bool) -> list:
        out = []
        for n in (1, 2, 3):
            s = Surface(True, n)
            if timed:  # two regular bases and one accumulation base on every surface
                bases = set()
                while len(bases) < 2:
                    bases.add(Point(s, rng.randint(1, n), rng.randint(-4, 4)))
                bases.add(Point(s, rng.randint(1, n), None))
            else:  # warm-up fountains sit on other bases than any timed one
                bases = {Point(s, rng.randint(1, n), rng.choice((-7, 7)))}
            out.extend(_Known(tri.build_fountain(s, b), True) for b in sorted(bases, key=key))
        return out

    def _zigzags(self, rng, timed: bool) -> list:
        s = Surface(True, 1)
        offsets = rng.sample(range(-10, 10), 3) if timed else [25]
        out = []
        for c in offsets:
            alpha = tri.Family(tri.Moving(1, c, 1), tri.Moving(1, c, -1), affine.IntRange(1, None))
            beta = tri.Family(tri.Moving(1, c + 1, 1), tri.Moving(1, c, -1), affine.IntRange(1, None))
            out.append(_Known(tri.build_zigzag_leapfrog(s, alpha, beta), True))
        return out

    @staticmethod
    def _random_point(rng, s, spread: int = 6):
        if s.completed and rng.random() < 0.2:
            return Point(s, rng.randint(1, s.intervals), None)
        return Point(s, rng.randint(1, s.intervals), rng.randint(-spread, spread))

    def _random_family(self, rng, s):
        stride = rng.choice((1, 2, 3, 4, 5)) * rng.choice((1, -1))
        moving = tri.Moving(rng.randint(1, s.intervals), rng.randint(-6, 6), stride)
        if rng.random() < 0.6:
            ends = [self._random_point(rng, s), moving]
        else:
            stride2 = rng.choice((1, 2, 3, 4, 5)) * rng.choice((1, -1))
            ends = [moving, tri.Moving(rng.randint(1, s.intervals), rng.randint(-6, 6), stride2)]
        rng.shuffle(ends)
        shape = rng.randrange(4)
        lo = rng.randint(-6, 3)
        domain = (
            affine.IntRange(lo, lo + rng.randint(1, 8)),
            affine.IntRange(lo, None),
            affine.IntRange(None, lo + 3),
            affine.IntRange(None, None),
        )[shape]
        return tri.Family(ends[0], ends[1], domain)

    def _family_sets(self, rng, want: int) -> tuple[list, list]:
        """Seeded collections of two families and one arc, split by brute force into non-crossing and crossing."""
        good: list = []
        bad: list = []
        while len(good) < want or len(bad) < want:
            s = Surface(True, rng.randint(1, 3))
            gens = [self._random_family(rng, s) for _ in range(2)]
            try:
                gens.append(tri.Single(arcs.Arc(self._random_point(rng, s, 8), self._random_point(rng, s, 8))))
            except ValueError:
                continue  # equal or adjacent endpoints: draw again
            try:
                t = tri.Triangulation(s, tuple(gens))
            except ValueError:
                continue  # degenerate family or duplicate arc: not an input
            crossing = any_crossing([arc_keys(a) for a in instances(t, 12)]) or any_crossing(
                [arc_keys(a) for a in instances(t, P_CROSS)]
            )
            pile = bad if crossing else good
            if len(pile) < want:
                pile.append(_Known(t, False))
        return good, bad

    def _pools(self, rng, timed: bool) -> dict:
        fountains = self._fountains(rng, timed)
        zigzags = self._zigzags(rng, timed)
        good, bad = self._family_sets(rng, 3 if self.tiny or not timed else 20)
        certified = fountains + zigzags
        everything = certified + good
        pools: dict[str, list] = {k: [] for k in dict.fromkeys(self.ROUND)}

        for k in fountains + zigzags + good:
            pools["validate"].append((k, True))
        for k in bad:
            pools["validate"].append((k, False))

        for k in everything:
            s = k.t.surface
            bound = {1: 3, 2: 2, 3: 1}[s.intervals]
            w = tri.Window.symmetric(s, bound)
            expected = k.window_check(w)
            if k.certified and not expected:
                raise AssertionError("brute force says a certified triangulation is not locally maximal")
            pools["window_check"].append(((k, w), expected))

        for k in everything:
            s = k.t.surface
            members = [a for a in k.insts if all(p.pos is None or abs(p.pos) <= 10 for p in a.endpoints)]
            for x in rng.sample(members, min(3, len(members))):
                pools["contains"].append(((k, x), True))
            made = 0
            while made < 3:
                try:
                    x = arcs.Arc(self._random_point(rng, s, 10), self._random_point(rng, s, 10))
                except ValueError:
                    continue
                made += 1
                pools["contains"].append(((k, x), x in k.inst_set))

        for k in certified:
            members = [a for a in k.insts if all(p.pos is None or abs(p.pos) <= 10 for p in a.endpoints)]
            for a in rng.sample(members, min(6, len(members))):
                for e in a.endpoints:
                    side = rng.choice((LEFT, RIGHT))
                    empty, ext = k.extremum(a, e, side)
                    pools["neighbor_scan"].append(((k, a, e, side), (empty, ext, set(k.side_partners(a, e, side, SCAN_R1)))))
                frame = k.frame(a)
                pools["quad_frame"].append(((k, a), frame))
                for side in (LEFT, RIGHT):
                    summands = []
                    for e in a.endpoints:
                        empty, ext = k.extremum(a, e, side)
                        if empty:
                            continue
                        if ext == UNDEF:
                            summands = None
                            break
                        summands.append(arcs.Arc(e, ext))
                    pools["approximate"].append(((k, a, side), None if summands is None else tuple(summands)))
                u_left, u_right, v_left, v_right = frame
                if UNDEF not in frame and u_left == v_right and u_right == v_left:
                    pools["flip"].append(((k, a), arcs.Arc(u_right, v_right)))

        for k in fountains:
            s = k.t.surface
            made = 0
            while made < 2:
                try:
                    g = arcs.Arc(self._random_point(rng, s, 10), self._random_point(rng, s, 10))
                except ValueError:
                    continue
                made += 1
                pools["right_module_generators"].append(((k, g), True))
        for k in zigzags:
            c = k.t.generators[0].e0.base
            for j in rng.sample(range(-5, 5), 3):
                g = arcs.Arc(Point(k.t.surface, 1, c + j), Point(k.t.surface, 1, None))
                pools["right_module_generators"].append(((k, g), False))

        for k in certified:
            pools["detect_leapfrog"].append((k, k in zigzags))

        for _ in range(12 if timed else 2):
            s = Surface(True, rng.randint(1, 3))
            moving = tri.Moving(rng.randint(1, s.intervals), rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 5)) * rng.choice((1, -1)))
            fixed = self._random_point(rng, s)
            shape = rng.randrange(3)
            domain = (affine.IntRange(rng.randint(-3, 3), None), affine.IntRange(None, rng.randint(-3, 3)), affine.IntRange(None, None))[shape]
            end = rng.choice((1, -1)) if shape == 2 else None
            fam = tri.Family(fixed, moving, domain)
            pools["limit_of_family"].append(((s, fam, end), self._expected_limit(s, fam, end)))

        for _ in range(24 if timed else 2):
            pools["solve_2var"].append(self._system(rng))

        for name, pool in pools.items():
            if not pool:
                raise AssertionError(f"empty pool for {name}")
            rng.shuffle(pool)
        return pools

    @staticmethod
    def _expected_limit(s, fam, end):
        """Limit of a fan by cyclic order alone: where the moving endpoint escapes to."""
        direction = end if end is not None else (1 if fam.domain.hi is None else -1)
        mov = fam.moving_endpoints[0]
        k = mov.interval
        upward = (mov.stride > 0) == (direction > 0)
        gap = k if upward else (k - 1 if k > 1 else s.intervals)
        q = Point(s, gap, None)
        # the escaping positions approach q monotonically from one side
        far = [key(Point(s, k, mov.pos_at(900 * direction + i * direction))) for i in range(3)]
        ascending = strictly_between(far[0], far[1], key(q)) and strictly_between(far[1], far[2], key(q))
        descending = strictly_between(key(q), far[1], far[0]) and strictly_between(key(q), far[2], far[1])
        if not (ascending or descending):
            raise AssertionError("fan does not approach its accumulation point")
        p = fam.fixed_endpoint
        if p == q:
            return ("accumulation-point", None, q)
        return ("arc", arcs.Arc(p, q), None)

    @staticmethod
    def _system(rng):
        """A solver input and its feasibility: a thin strip or a random bounded system."""
        LinIneq, IntRange = affine.LinIneq, affine.IntRange
        r = 12
        kind = rng.randrange(3)
        if kind == 0:  # B*i + 1 <= B*j <= B*i + B - 1: empty, rationally wide
            b = rng.randint(2, 6)
            c = b * rng.randint(-2, 2)
            ineqs = [LinIneq(-b, b, -1 - c), LinIneq(b, -b, b - 1 + c)]
            if rng.random() < 0.5:
                return ((ineqs, affine.FULL_RANGE, affine.FULL_RANGE), (False, None))
            ranges = (IntRange(-r, r), IntRange(-r, r))
        elif kind == 1:  # A*i + c + 1 <= B*j <= A*i + c + B - 1 in a box
            a, b = rng.randint(2, 6), rng.randint(2, 6)
            c = rng.randint(-5, 5)
            ineqs = [LinIneq(-a, b, -1 - c), LinIneq(a, -b, b - 1 + c)]
            ranges = (IntRange(-r, r), IntRange(-r, r))
        else:
            ineqs = [
                LinIneq(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-15, 15))
                for _ in range(rng.randint(2, 4))
            ]
            lo_i, lo_j = rng.randint(-r, 0), rng.randint(-r, 0)
            ranges = (IntRange(lo_i, rng.randint(lo_i, r)), IntRange(lo_j, rng.randint(lo_j, r)))
        box = [
            (i, j)
            for i in range(ranges[0].lo, ranges[0].hi + 1)
            for j in range(ranges[1].lo, ranges[1].hi + 1)
            if all(q.a * i + q.b * j + q.c >= 0 for q in ineqs)
        ]
        return ((ineqs, ranges[0], ranges[1]), (bool(box), ranges))

    # -- the stream

    def ops(self):
        cursor = dict.fromkeys(self.pools, 0)
        while True:
            for kind in self.ROUND:
                pool = self.pools[kind]
                payload, expected = pool[cursor[kind] % len(pool)]
                cursor[kind] += 1
                yield (kind, payload, expected)

    def run(self, op):
        kind, p, _ = op
        if kind == "validate":
            return tri.validate_non_crossing(p.t)
        if kind == "window_check":
            return tri.window_check(p[0].t, p[1])
        if kind == "contains":
            return p[0].t.contains(p[1])
        if kind == "neighbor_scan":
            k, a, e, side = p
            return tri.neighbor_scan(k.t, a, e, side)
        if kind == "quad_frame":
            return mutation.quad_frame(p[0].t, p[1])
        if kind == "approximate":
            return mutation.approximate(p[0].t, p[1], p[2])
        if kind == "flip":
            return mutation.flip(p[0].t, p[1])
        if kind == "right_module_generators":
            return mutation.right_module_generators(p[0].t, p[1])
        if kind == "limit_of_family":
            return tri.limit_of_family(*p)
        if kind == "detect_leapfrog":
            return tri.detect_leapfrog(p.t)
        if kind == "solve_2var":
            return affine.solve_2var(*p)
        raise ValueError(kind)

    def check(self, op, res):
        kind, p, expected = op
        if kind == "validate":
            if res.ok != expected:
                return f"validate said ok={res.ok}"
            if not res.ok:
                w0, w1 = res.witness
                if not keys_cross(arc_keys(w0), arc_keys(w1)):
                    return "crossing witness does not cross"
                if not all(w in p.inst_set or p.t.contains(w) for w in (w0, w1)):
                    return "crossing witness is not made of instances"
            return None
        if kind in ("window_check", "contains", "detect_leapfrog"):
            got = res if kind != "detect_leapfrog" else res is not None
            return None if got == expected else f"{kind} said {got}"
        if kind == "neighbor_scan":
            empty, ext, near = expected
            if res.empty != empty:
                return "scan emptiness differs from brute force"
            if _scan_points(res, SCAN_R1) != near:
                return "scan points differ from brute force"
            got = UNDEF if (not res.empty and res.extremum is None) else res.extremum
            return None if got == ext else f"scan extremum {got} expected {ext}"
        if kind == "quad_frame":
            got = tuple(UNDEF if e is mutation.UNDEFINED else e for e in res.entries())
            return None if got == expected else "frame differs from brute-force scans"
        if kind == "approximate":
            got = res.summands if res.exists else None
            return None if got == expected else "approximation differs from brute-force scans"
        if kind == "flip":
            k, a = p
            if res.new_arc != expected:
                return "flip gave another arc than the brute-force frame"
            if not res.new_triangulation.contains(expected) or res.new_triangulation.contains(a):
                return "flip did not swap the arcs"
            return None
        if kind == "right_module_generators":
            k, g = p
            finite = not isinstance(res, mutation.NotFinitelyGenerated)
            if finite != expected:
                return f"right_module_generators finite={finite}"
            if finite and any(a not in k.inst_set for a in res):
                return "module generator is not in the triangulation"
            return None
        if kind == "limit_of_family":
            kind_name, arc, point = expected
            if res.kind.value != kind_name or res.arc != arc or res.point != point:
                return f"limit {res.kind.value} expected {kind_name}"
            return None
        if kind == "solve_2var":
            feasible, _ = expected
            ineqs, ri, rj = p
            if (res is not None) != feasible:
                return f"solve_2var feasibility {res is not None}"
            if res is not None:
                i, j = res
                if not (ri.contains(i) and rj.contains(j) and all(q.a * i + q.b * j + q.c >= 0 for q in ineqs)):
                    return "solve_2var model violates the system"
            return None
        raise ValueError(kind)
