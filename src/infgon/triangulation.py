"""Finitely presented, possibly infinite collections of non-crossing arcs.

A triangulation is stored as a list of generators: single arcs plus affine
families whose endpoints move along one interval with a fixed stride.  That
vocabulary covers fountains, fans, split fans and zigzag ladders.  Two
single arcs are compared directly, by their circuit keys.  A fixed arc
against a family is a question in the family parameter alone: position
arithmetic for membership, one-variable feasibility per conjunction for
crossing.  Two families reduce to integer linear feasibility in both
parameters, decided exactly by :mod:`infgon.affine`.

A finite window needs no solver.  The window's m points and the m open
gaps between them cut the circle into 2m cells, and whether an instance is
a window arc, or crosses one, depends only on the cells of its ends.  So
each generator is placed among the cells once, a moving end cut into one
parameter range per cell it reaches, and the window's arcs and its
maximality are both read off that placement.
"""

from __future__ import annotations

import math
import reprlib
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from . import limits
from .affine import (
    EMPTY_RANGE,
    FULL_RANGE,
    IntRange,
    LinIneq,
    SymPoint,
    conjunction_model,
    cross_conjunctions,
    eq_conjunctions,
    orient_conjunctions,
    range_ineqs,
    solve_1var_range,
)
from .arcs import Arc, arc_key, cross_transverse, format_arc, parse_arc
from .surface import MixedSurfaceError, Point, Surface, format_point, parse_point, parse_surface


class TriangulationError(ValueError):
    pass


class CrossingError(TriangulationError):
    def __init__(self, first: Arc, second: Arc):
        super().__init__(f"arcs cross: {format_arc(first)} and {format_arc(second)}")
        self.witness = (first, second)


class DuplicateArcError(TriangulationError):
    pass


class LeapfrogError(TriangulationError):
    pass


@dataclass(frozen=True)
class Moving:
    """Endpoint sweeping interval ``interval`` at positions base + stride*t."""

    interval: int
    base: int
    stride: int

    def __post_init__(self) -> None:
        if self.stride == 0:
            raise ValueError("moving endpoint needs a nonzero stride")

    def pos_at(self, t: int) -> int:
        return self.base + self.stride * t

    def param_for_pos(self, pos: int) -> Optional[int]:
        q, r = divmod(pos - self.base, self.stride)
        return q if r == 0 else None

    def position_range(self, domain: IntRange) -> IntRange:
        at = lambda t: None if t is None else self.pos_at(t)
        if self.stride > 0:
            return IntRange(at(domain.lo), at(domain.hi))
        return IntRange(at(domain.hi), at(domain.lo))

    def params_with_pos_in(self, lo: int | None, hi: int | None) -> IntRange:
        """Parameter range whose positions land in [lo, hi] (None = unbounded)."""
        ineqs: list[tuple[int, int]] = []
        if lo is not None:
            ineqs.append((self.stride, self.base - lo))
        if hi is not None:
            ineqs.append((-self.stride, hi - self.base))
        r = solve_1var_range(ineqs)
        return r if r is not None else EMPTY_RANGE


Endpoint = Union[Point, Moving]


@dataclass(frozen=True)
class Family:
    """One-parameter affine family of arcs over an integer domain."""

    e0: Endpoint
    e1: Endpoint
    domain: IntRange

    def __post_init__(self) -> None:
        if not isinstance(self.e0, Moving) and not isinstance(self.e1, Moving):
            raise ValueError("a family needs at least one moving endpoint; use Single instead")
        if self.domain.is_empty:
            raise ValueError("family domain is empty")

    def endpoint_at(self, surface: Surface, which: int, t: int) -> Point:
        e = self.e0 if which == 0 else self.e1
        if isinstance(e, Moving):
            return Point(surface, e.interval, e.pos_at(t))
        return e

    def arc_at(self, surface: Surface, t: int) -> Arc:
        return Arc(self.endpoint_at(surface, 0, t), self.endpoint_at(surface, 1, t))

    def ends_at(self, p: Point) -> dict[int, Optional[int]]:
        """The ends (0 or 1) of this family at p, each with its parameter: the
        one in the domain that puts a moving end at p, None for a fixed end."""
        out: dict[int, Optional[int]] = {}
        for which, e in enumerate((self.e0, self.e1)):
            if isinstance(e, Moving):
                if p.pos is not None and p.interval == e.interval:
                    t = e.param_for_pos(p.pos)
                    if t is not None and self.domain.contains(t):
                        out[which] = t
            elif e == p:
                out[which] = None
        return out

    @property
    def fixed_endpoint(self) -> Optional[Point]:
        if isinstance(self.e0, Point):
            return self.e0
        if isinstance(self.e1, Point):
            return self.e1
        return None

    @property
    def moving_endpoints(self) -> list[Moving]:
        return [e for e in (self.e0, self.e1) if isinstance(e, Moving)]


@dataclass(frozen=True)
class Single:
    arc: Arc


Generator = Union[Single, Family]


@dataclass(frozen=True)
class Certificate:
    """A claim of maximality: everywhere, or within ``window`` when it is set."""

    window: Optional["Window"] = None


CERTIFIED_MAXIMAL = Certificate()


@dataclass(frozen=True)
class Window:
    """Finite set of marked points used for brute-force checks and rendering."""

    surface: Surface
    points: tuple[Point, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("window needs at least one point")
        if len(set(self.points)) != len(self.points):
            raise ValueError("window points must be distinct")
        for p in self.points:
            if p.surface is not self.surface:
                raise ValueError("window points must live on the window surface")
        object.__setattr__(self, "points", tuple(sorted(self.points, key=Point.circuit_key)))

    @staticmethod
    def symmetric_size(surface: Surface, bound: int, include_accumulation: bool = True) -> int:
        """Points of ``Window.symmetric`` with these arguments, known before any is built."""
        if bound < 0:
            raise ValueError(f"window bound {bound} is negative")
        return surface.intervals * (2 * bound + 1 + (surface.completed and include_accumulation))

    @staticmethod
    def symmetric(surface: Surface, bound: int, include_accumulation: bool = True) -> "Window":
        Window.symmetric_size(surface, bound, include_accumulation)  # refuses a negative bound
        pts: list[Point] = []
        for k in range(1, surface.intervals + 1):
            pts.extend(Point(surface, k, i) for i in range(-bound, bound + 1))
            if surface.completed and include_accumulation:
                pts.append(Point(surface, k, None))
        return Window(surface, tuple(pts))

    @staticmethod
    def of_points(points: Sequence[Point]) -> "Window":
        return Window(points[0].surface if points else None, tuple(points))


# --- symbolic encodings ----------------------------------------------------


def _sym_fixed(p: Point) -> SymPoint:
    slot, pos = p.circuit_key()
    if p.pos is None:
        return (slot, None)
    return (slot, (0, 0, pos))


def _sym_endpoint(e: Endpoint, var: int) -> SymPoint:
    if isinstance(e, Moving):
        aff = (e.stride, 0, e.base) if var == 0 else (0, e.stride, e.base)
        return (2 * e.interval - 1, aff)
    return _sym_fixed(e)


def _gen_sym_pair(gen: Generator, var: int) -> tuple[SymPoint, SymPoint]:
    if isinstance(gen, Single):
        return (_sym_fixed(gen.arc.a), _sym_fixed(gen.arc.b))
    return (_sym_endpoint(gen.e0, var), _sym_endpoint(gen.e1, var))


def _first_model(dnf, fam_a: Family, fam_b: Family, same: bool) -> Optional[tuple[int, int]]:
    """The first model, in DNF order, of ``dnf(pair_a, pair_b)`` over the two
    families' symbolic endpoints and domains; ``same`` adds i < j."""
    conjunctions = dnf(_gen_sym_pair(fam_a, 0), _gen_sym_pair(fam_b, 1))
    extra = (LinIneq(-1, 1, -1),) if same else ()
    for conj in conjunctions:
        m = conjunction_model(conj, fam_a.domain, fam_b.domain, extra)
        if m is not None:
            return m
    return None


def _param_ranges(fam: Family, dnf: list[list[LinIneq]]) -> Iterator[IntRange]:
    """The parameters of ``fam`` satisfying each conjunction of ``dnf``, a DNF
    in that parameter alone, in DNF order; unsatisfiable conjunctions are skipped."""
    bounds = [(q.a, q.c) for q in range_ineqs(fam.domain, 0)]
    for conj in dnf:
        r = solve_1var_range([(atom.a, atom.c) for atom in conj] + bounds)
        if r is not None:
            yield r


def crossing_witness(surface: Surface, gen_a: Generator, gen_b: Generator, same: bool = False) -> Optional[tuple[Arc, Arc]]:
    """A crossing pair of instances of the two generators, or None.

    ``same`` restricts to distinct instances (i < j) of one family passed
    twice.  Two fixed arcs are decided directly by interleaving of their
    circuit keys, which is what the symbolic DNF encodes for them; a family
    against a fixed arc is a question in the family parameter alone.
    """
    if isinstance(gen_a, Single) and isinstance(gen_b, Single):
        return (gen_a.arc, gen_b.arc) if cross_transverse(gen_a.arc, gen_b.arc) else None
    if isinstance(gen_a, Family) and isinstance(gen_b, Family):
        m = _first_model(cross_conjunctions, gen_a, gen_b, same)
        return None if m is None else (gen_a.arc_at(surface, m[0]), gen_b.arc_at(surface, m[1]))
    fam = gen_a if isinstance(gen_a, Family) else gen_b
    # the first satisfiable conjunction in argument order, at the parameter a solver reports
    r = next(_param_ranges(fam, cross_conjunctions(_gen_sym_pair(gen_a, 0), _gen_sym_pair(gen_b, 0))), None)
    if r is None:
        return None
    arc = fam.arc_at(surface, r.witness())
    return (arc, gen_b.arc) if fam is gen_a else (gen_a.arc, arc)


def ext_param_ranges(fam: Family, g: Arc) -> list[IntRange]:
    """Parameter ranges of the instances of ``fam`` carrying an extension with ``g``.

    An instance qualifies when it crosses ``g``, or when it meets ``g``
    clockwise at a shared accumulation endpoint.  One range is returned per
    satisfiable conjunction, so ranges may overlap.
    """
    dnf = cross_conjunctions(_gen_sym_pair(fam, 0), (_sym_fixed(g.a), _sym_fixed(g.b)))
    p = fam.fixed_endpoint
    if p is not None and p.pos is None and g.has_endpoint(p):
        moving = _sym_endpoint(fam.moving_endpoints[0], 0)
        dnf += orient_conjunctions(_sym_fixed(p), _sym_fixed(g.other_endpoint(p)), moving)
    return list(_param_ranges(fam, dnf))


def duplicate_witness(surface: Surface, gen_a: Generator, gen_b: Generator, same: bool = False) -> Optional[Arc]:
    """An arc instantiated by both generators, or None; two fixed arcs are compared directly.

    ``same`` restricts to distinct instances (i < j) of one family passed
    twice, as in :func:`crossing_witness`.
    """
    if isinstance(gen_a, Single) and isinstance(gen_b, Single):
        return gen_a.arc if gen_a.arc == gen_b.arc else None
    if isinstance(gen_a, Family) and isinstance(gen_b, Family):
        m = _first_model(eq_conjunctions, gen_a, gen_b, same)
        return None if m is None else gen_a.arc_at(surface, m[0])
    fam, single = (gen_a, gen_b) if isinstance(gen_a, Family) else (gen_b, gen_a)
    return None if family_param_of(fam, single.arc) is None else single.arc


def _invalid_family_param(fam: Family) -> Optional[int]:
    """A parameter whose instance has equal or adjacent endpoints (one interval,
    positions at most 1 apart), if any; the one of lowest position difference."""
    (s0, a0), (s1, a1) = _gen_sym_pair(fam, 0)
    if a0 is None or a1 is None or s0 != s1:
        return None  # distinct intervals or an accumulation endpoint: always valid
    dcoef, dconst = a1[0] - a0[0], a1[2] - a0[2]
    bounds = [(q.a, q.c) for q in range_ineqs(fam.domain, 0)]
    r = solve_1var_range([(dcoef, dconst + 1), (-dcoef, 1 - dconst), *bounds])
    if r is None:
        return None
    # the difference grows with t (or stays): lowest t first; it shrinks: highest t
    return r.hi if dcoef < 0 else r.witness()


# an entry of the endpoint index: (generator position, partner point, partner circuit key)
_Partner = tuple[int, Point, tuple[int, int]]


@dataclass(frozen=True)
class Triangulation:
    """Surface plus generator list, with the claim it makes about its maximality.

    ``certificate`` is None for no claim, ``CERTIFIED_MAXIMAL`` for maximal
    everywhere, or ``Certificate(window)`` for maximal within the window.
    Construction checks that families instantiate to genuine arcs everywhere
    and that no arc is presented twice, and searches the generator pairs for
    the first crossing in the same pass.  A triangulation that makes a claim
    and crosses raises :class:`CrossingError` with the witness pair.  One
    without a claim may cross; :func:`validate_non_crossing` reports that.
    A window claim is checked where it enters, by :func:`from_window_set` and
    :func:`triangulation_from_json`, not here.  A flip inherits its
    triangulation's verdicts: it checks the new arc against every generator
    and decides the pairs of fixed arcs again, but re-checks no kept family.

    Construction also indexes the generators: ``_ends`` maps the circuit key
    of each endpoint of a ``Single`` to ``(generator position, partner,
    partner key)`` entries in generator order, ``_families`` holds the
    ``(position, Family)`` generators, and ``_crossing`` the first crossing
    pair found, or None.  The index takes no part in equality, hashing, repr
    or JSON.
    """

    surface: Surface
    generators: tuple[Generator, ...]
    certificate: Optional[Certificate] = None
    _ends: dict[tuple[int, int], list[_Partner]] = field(init=False, compare=False, repr=False)
    _families: tuple[tuple[int, Family], ...] = field(init=False, compare=False, repr=False)
    _crossing: Optional[tuple[Arc, Arc]] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self._index_and_check(0)

    def _index_and_check(self, first_new: int) -> None:
        """Index the generators and check them.  Those before ``first_new`` come
        from a triangulation with a claim (see :func:`_replace_arc`), so their
        own checks and their pairs that involve a family are skipped."""
        limits.require(len(self.generators), limits.GENERATOR_LIMIT, limits.GENERATORS)
        ends: dict[tuple[int, int], list[_Partner]] = {}
        families: list[tuple[int, Family]] = []
        for i, gen in enumerate(self.generators):
            if isinstance(gen, Single):
                arc = gen.arc
                if arc.surface is not self.surface:
                    raise TriangulationError("generator arc on the wrong surface")
                ends.setdefault(arc.ka, []).append((i, arc.b, arc.kb))
                ends.setdefault(arc.kb, []).append((i, arc.a, arc.ka))
                continue
            families.append((i, gen))
            if i < first_new:
                continue
            for e in (gen.e0, gen.e1):
                if isinstance(e, Moving):
                    if not 1 <= e.interval <= self.surface.intervals:
                        raise TriangulationError(f"moving endpoint interval {e.interval} out of range")
                    limits.require(e.stride, limits.STRIDE_LIMIT, limits.STRIDE)
                elif e.surface is not self.surface:
                    raise TriangulationError("fixed endpoint on the wrong surface")
            bad = _invalid_family_param(gen)
            if bad is not None:
                raise TriangulationError(f"family degenerates at parameter {bad}")
            dup = duplicate_witness(self.surface, gen, gen, same=True)
            if dup is not None:
                raise DuplicateArcError(f"arc {format_arc(dup)} appears twice in one family")
        object.__setattr__(self, "_ends", ends)
        object.__setattr__(self, "_families", tuple(families))
        # one pass over the generator pairs, a family against itself first: a
        # duplicate is refused at once, the first crossing only remembered
        gens = self.generators
        # of the inherited pairs, only those of two fixed arcs are decided again
        checked = [j for j, gen in enumerate(gens) if j >= first_new or isinstance(gen, Single)]
        crossing: Optional[tuple[Arc, Arc]] = None
        done = 0  # the checked generators up to i
        for i, gen in enumerate(gens):
            if i < first_new and isinstance(gen, Family):
                partners: Iterable[int] = range(first_new, len(gens))
            else:
                done += 1
                partners = checked[done:]
                if crossing is None and isinstance(gen, Family):
                    crossing = crossing_witness(self.surface, gen, gen, same=True)
            for j in partners:
                dup = duplicate_witness(self.surface, gen, gens[j])
                if dup is not None:
                    raise DuplicateArcError(f"arc {format_arc(dup)} appears in two generators")
                if crossing is None:
                    crossing = crossing_witness(self.surface, gen, gens[j])
        object.__setattr__(self, "_crossing", crossing)
        # a certificate is a claim, whether a builder, a flip or a file makes
        # it: at least check that the arcs it certifies do not cross
        if crossing is not None and self.certificate is not None:
            raise CrossingError(*crossing)

    def contains(self, arc: Arc) -> bool:
        if arc.surface is not self.surface:
            return False
        if any(k == arc.kb for _, _, k in self._ends.get(arc.ka, ())):
            return True
        return any(family_param_of(gen, arc) is not None for _, gen in self._families)

    def arcs_in_window(self, window: Window) -> frozenset[Arc]:
        """The instances with both endpoints among the window's points.

        Read off the window's cell placement (see :func:`_cell_partners`): an
        instance joins window points i < j exactly when cell 2j is a partner
        of cell 2i.  The work follows the generators' instances near the
        window, however far apart its points lie.
        """
        pts = window.points
        out: set[Arc] = set()
        for i, mask in enumerate(_cell_partners(self, window)[::2]):
            mask >>= 2 * i + 2  # bit 2k: point i + 1 + k; odd bits are gaps
            while mask:
                c = mask.bit_length() - 1
                mask ^= 1 << c
                if not c & 1:
                    out.add(Arc(pts[i], pts[i + 1 + c // 2]))
        return frozenset(out)


def family_param_of(fam: Family, arc: Arc) -> Optional[int]:
    """The parameter at which ``fam`` instantiates to ``arc``, or None."""
    at_a = fam.ends_at(arc.a)
    if not at_a:
        return None
    at_b = fam.ends_at(arc.b)
    for at_p, at_q in ((at_a, at_b), (at_b, at_a)):
        if 0 in at_p and 1 in at_q:
            t0, t1 = at_p[0], at_q[1]
            # at most one end is fixed (None), since a family has a moving end
            if t0 is None or t1 is None or t0 == t1:
                return t1 if t0 is None else t0
    return None


@dataclass(frozen=True)
class NonCrossingReport:
    ok: bool
    witness: Optional[tuple[Arc, Arc]] = None


def validate_non_crossing(t: Triangulation) -> NonCrossingReport:
    """The first crossing pair of instances, within and across generators,
    that construction found, if any."""
    return NonCrossingReport(t._crossing is None, t._crossing)


def arc_crossing_in(t: Triangulation, arc: Arc) -> Optional[Arc]:
    """Some instance of t crossing the given arc, or None."""
    if arc.surface is not t.surface:
        raise MixedSurfaceError("query arc on the wrong surface")
    for gen in t.generators:
        hit = crossing_witness(t.surface, Single(arc), gen)
        if hit is not None:
            return hit[1]
    return None


def _remove_arc(t: Triangulation, a: Arc) -> tuple[Generator, ...]:
    """The generators of t without the arc a: a family holding a is cut
    round it into the pieces of its domain on either side."""
    out: list[Generator] = []
    removed = False
    for gen in t.generators:
        if isinstance(gen, Single):
            if gen.arc == a:
                removed = True
                continue
            out.append(gen)
            continue
        tpar = family_param_of(gen, a)
        if tpar is None:
            out.append(gen)
            continue
        removed = True
        lo, hi = gen.domain.lo, gen.domain.hi
        for part in (IntRange(lo, tpar - 1), IntRange(tpar + 1, hi)):
            if part.is_empty:
                continue
            if part.is_bounded and part.lo == part.hi:
                out.append(Single(gen.arc_at(t.surface, part.lo)))
            else:
                out.append(Family(gen.e0, gen.e1, part))
    if not removed:
        raise TriangulationError(f"arc {format_arc(a)} is not in the triangulation")
    return tuple(out)


def _replace_arc(t: Triangulation, a: Arc, new_arc: Arc) -> Triangulation:
    """t with a replaced by new_arc as its last generator, equal to that built
    from scratch, errors included.  The other generators are t's or pieces of
    them, and t makes a claim, so they neither cross nor repeat each other:
    only the pairs meeting new_arc and the pairs of fixed arcs are checked."""
    assert t.certificate is not None, "only a triangulation that claims no crossing passes its checks on"
    kept = _remove_arc(t, a)
    out = object.__new__(Triangulation)
    object.__setattr__(out, "surface", t.surface)
    object.__setattr__(out, "generators", kept + (Single(new_arc),))
    object.__setattr__(out, "certificate", t.certificate)
    out._index_and_check(len(kept))
    return out


# --- builders ---------------------------------------------------------------


def build_fountain(surface: Surface, base: Point) -> Triangulation:
    """All arcs through one base point; maximal by construction."""
    if not surface.completed:
        raise ValueError("fountains are built on completed surfaces")
    if base.surface is not surface:
        raise ValueError("base point on the wrong surface")
    n = surface.intervals
    limits.require(2 * n + 1 if base.pos is not None else 2 * n - 1, limits.GENERATOR_LIMIT, limits.GENERATORS)
    gens: list[Generator] = []
    if base.pos is not None:
        k, p = base.interval, base.pos
        gens.append(Family(base, Moving(k, p + 2, 1), IntRange(0, None)))
        gens.append(Family(base, Moving(k, p - 2, -1), IntRange(0, None)))
        for j in range(1, n + 1):
            if j != k:
                gens.append(Family(base, Moving(j, 0, 1), FULL_RANGE))
            gens.append(Single(Arc(base, Point(surface, j, None))))
    else:
        for j in range(1, n + 1):
            gens.append(Family(base, Moving(j, 0, 1), FULL_RANGE))
            if j != base.interval:
                gens.append(Single(Arc(base, Point(surface, j, None))))
    return Triangulation(surface, tuple(gens), CERTIFIED_MAXIMAL)


def _escape(m: Moving, direction: int, n: int) -> tuple[int, bool]:
    """(gap index, approached from below) for parameter going to +/- infinity."""
    upward = (m.stride > 0) == (direction > 0)
    if upward:
        return (m.interval, True)
    return (m.interval - 1 if m.interval > 1 else n, False)


def _affine_offset(u: Endpoint, v: Endpoint, lead: int = 0) -> Optional[int]:
    """Index offset c with u(t + c) == v(t + lead) identically, or None.

    Only moving-against-moving identities count; shared fixed endpoints give
    fans, not ladders.
    """
    if not (isinstance(u, Moving) and isinstance(v, Moving)):
        return None
    if u.interval != v.interval or u.stride != v.stride:
        return None
    q, r = divmod(v.base + v.stride * lead - u.base, u.stride)
    return q if r == 0 else None


def _chain_alignment(alpha: Family, beta: Family) -> Optional[tuple[int, int, int]]:
    """(x, y, c) such that beta's arc at t+c shares alpha(t)'s endpoint x and
    alpha(t+1)'s endpoint 1-x, through beta's endpoints y and 1-y."""
    a_ends = (alpha.e0, alpha.e1)
    b_ends = (beta.e0, beta.e1)
    for x in (0, 1):
        for y in (0, 1):
            c1 = _affine_offset(b_ends[y], a_ends[x], 0)
            c2 = _affine_offset(b_ends[1 - y], a_ends[1 - x], 1)
            if c1 is not None and c1 == c2:
                return (x, y, c1)
    return None


@dataclass(frozen=True)
class LeapfrogWitness:
    alpha: Family
    beta: Family
    offset: int
    direction: int
    curve_ends: tuple[str, str]


def _pair_leapfrog(surface: Surface, alpha: Family, beta: Family) -> Optional[LeapfrogWitness]:
    align = _chain_alignment(alpha, beta)
    if align is None:
        return None
    x, _, c = align
    tip_a = (alpha.e0, alpha.e1)[x]
    tip_b = (alpha.e0, alpha.e1)[1 - x]
    n = surface.intervals
    # the chain (alpha at t and t + 1, beta at t + c) runs on without end in a
    # direction exactly when both domains are unbounded that way
    directions = []
    if alpha.domain.hi is None and beta.domain.hi is None:
        directions.append(1)
    if alpha.domain.lo is None and beta.domain.lo is None:
        directions.append(-1)
    for direction in directions:
        esc_a = _escape(tip_a, direction, n)
        esc_b = _escape(tip_b, direction, n)
        if esc_a != esc_b:
            def describe(esc: tuple[int, bool]) -> str:
                gap, from_below = esc
                return f"a{gap}{'-' if from_below else '+'}"
            return LeapfrogWitness(alpha, beta, c, direction, (describe(esc_a), describe(esc_b)))
    return None


def detect_leapfrog(t: Triangulation) -> Optional[LeapfrogWitness]:
    """Find an infinite alternating tip-to-tip chain between two families.

    The pairwise search finds a ladder only when consecutive rungs
    alpha(t) and alpha(t + 1) of each side lie in one family, i.e. when the
    ladder alternates between two of the given families.  The same ladder
    split over more families (the zigzag as four stride-2 families, say) is
    missed, so ``None`` rules a leapfrog out only for presentations where
    each side of every ladder is one family.  Chains whose two tip
    progressions escape to the same gap from the same side are monotone
    scallop chains, crossed by no arc, and do not count.
    """
    fams = [g for g in t.generators if isinstance(g, Family)]
    for alpha in fams:
        for beta in fams:
            if alpha is beta:
                continue
            w = _pair_leapfrog(t.surface, alpha, beta)
            if w is not None:
                return w
    return None


def build_zigzag_leapfrog(
    surface: Surface,
    alpha: Family,
    beta: Family,
    closing: Sequence[Arc] = (),
) -> Triangulation:
    """Triangulation whose core is an infinite alternating ladder of two families.

    Validates the tip-to-tip incidences symbolically, requires the chain to
    be infinite and genuinely leaping, and checks that the closing arcs
    finish the bounded pocket, so the result is certified maximal.
    """
    if _chain_alignment(alpha, beta) is None:
        raise LeapfrogError("families are not tip-to-tip aligned")
    if _pair_leapfrog(surface, alpha, beta) is None:
        raise LeapfrogError("chain is finite or degenerates to a scallop run; not an infinite leapfrog")
    t = Triangulation(surface, (alpha, beta, *(Single(a) for a in closing)), CERTIFIED_MAXIMAL)
    bound = 2 + max(
        (abs(e.base) for g in (alpha, beta) for e in (g.e0, g.e1) if isinstance(e, Moving)),
        default=0,
    )
    bound = max(bound, 2 + max((abs(p.pos) for a in closing for p in a.endpoints if p.pos is not None), default=0))
    check_window = Window.symmetric(surface, bound)
    if not window_check(t, check_window):
        raise LeapfrogError("closing arcs do not triangulate the complementary regions")
    return t


def canonical_zigzag(surface: Surface | None = None) -> Triangulation:
    """The standard infinite ladder on one interval, both tails at the gap."""
    surface = surface or Surface(True, 1)
    if surface.intervals > 1:
        raise ValueError(
            f"the zigzag is maximal only on one interval, not on {surface.describe()}: "
            "no ladder arc reaches interval 2, so 2:0-2:2 crosses nothing"
        )
    alpha = Family(Moving(1, 0, 1), Moving(1, 0, -1), IntRange(1, None))
    beta = Family(Moving(1, 1, 1), Moving(1, 0, -1), IntRange(1, None))
    return build_zigzag_leapfrog(surface, alpha, beta)


# --- window machinery -------------------------------------------------------


def window_arcs(w: Window) -> tuple[Arc, ...]:
    pts = w.points
    out = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            try:
                out.append(Arc(pts[i], pts[j]))
            except ValueError:
                continue
    return tuple(out)


def _polygon_diagonal_sets(m: int) -> list[frozenset[tuple[int, int]]]:
    @lru_cache(maxsize=None)
    def rec(lo: int, hi: int) -> tuple[frozenset[tuple[int, int]], ...]:
        if hi - lo < 2:
            return (frozenset(),)
        out = []
        for k in range(lo + 1, hi):
            extra = frozenset(
                d for d in ((lo, k), (k, hi)) if d[1] - d[0] > 1
            )
            for left in rec(lo, k):
                for right in rec(k, hi):
                    out.append(left | right | extra)
        return tuple(out)

    if m < 3:
        return [frozenset()]
    return list(rec(0, m - 1))


def window_brute_force(w: Window) -> list[frozenset[Arc]]:
    """Every maximal non-crossing set of window arcs, by polygon enumeration.

    Window arcs joining cyclically consecutive window points cross nothing
    and belong to every maximal set; the remaining choices are exactly the
    triangulations of the convex polygon on the window points.  Each
    diagonal is built as one ``Arc`` shared by every set that holds it.
    """
    m = len(w.points)
    limits.require(m, limits.WINDOW_POINT_LIMIT, limits.WINDOW_POINTS)
    pts = w.points
    mandatory: set[Arc] = set()
    for i in range(m):
        j = (i + 1) % m
        if i == j:
            continue
        try:
            mandatory.add(Arc(pts[i], pts[j]))
        except ValueError:
            continue
    diagonals = {(i, j): Arc(pts[i], pts[j]) for i in range(m) for j in range(i + 2, m)}
    out = []
    for diag_set in _polygon_diagonal_sets(m):
        arcs = set(mandatory)
        arcs.update(diagonals[d] for d in diag_set)
        out.append(frozenset(arcs))
    return out


# a piece of a generator's end: (cell, the parameters putting the end in that cell)
_Piece = tuple[int, IntRange]


def _meeting_cells(xs: list[_Piece], ys: list[_Piece]) -> Iterator[tuple[int, int]]:
    """The cell pairs of the pieces of two ends whose parameter ranges meet.

    The ranges of one end are disjoint and ascending, so one merge walk finds
    every meeting pair: the range that ends first can meet nothing further.
    """
    i = j = 0
    while i < len(xs) and j < len(ys):
        (c, r), (d, s) = xs[i], ys[j]
        if not r.intersect(s).is_empty:
            yield c, d
        if s.hi is not None and (r.hi is None or s.hi < r.hi):
            j += 1
        else:
            i += 1


def _cell_partners(t: Triangulation, w: Window) -> list[int]:
    """For each cell of window w, the bitmask of the cells holding the other
    end of an instance of t with one end in it.

    Cell 2r is window point r and cell 2r + 1 the open gap after it; the last
    gap wraps round to before point 0.  A moving end is cut only at the
    window positions within its own span, so the work follows the instances
    near the window rather than the window's size.  This is the one place
    where generators are placed relative to window points.
    """
    if w.surface is not t.surface:
        raise MixedSurfaceError("window on the wrong surface")
    keys = [p.circuit_key() for p in w.points]
    cells = 2 * len(keys)

    def cell_of(k: tuple[int, int]) -> int:
        r = bisect_left(keys, k)
        return 2 * r if r < len(keys) and keys[r] == k else (2 * r - 1) % cells

    def pieces(e: Endpoint, domain: IntRange) -> list[_Piece]:
        """The pieces of end e over ``domain`` in ascending parameter order: a
        moving end is cut at the window's positions within its span."""
        if not isinstance(e, Moving):
            return [(cell_of(e.circuit_key()), domain)]
        slot, span = 2 * e.interval - 1, e.position_range(domain)
        first = bisect_left(keys, (slot,) if span.lo is None else (slot, span.lo))
        stop = bisect_left(keys, (slot + 1,) if span.hi is None else (slot, span.hi + 1))
        bounds, cell, lo = [], (2 * first - 1) % cells, None
        for r in range(first, stop):
            q = keys[r][1]
            bounds += ((cell, lo, q - 1), (2 * r, q, q))
            cell, lo = 2 * r + 1, q + 1
        bounds.append((cell, lo, None))
        out = [(c, domain.intersect(e.params_with_pos_in(lo, hi))) for c, lo, hi in bounds]
        out = [(c, params) for c, params in out if not params.is_empty]
        return out if e.stride > 0 else out[::-1]

    partners = [0] * cells
    for gen in t.generators:
        if isinstance(gen, Single):
            ends = ([(cell_of(gen.arc.ka), FULL_RANGE)], [(cell_of(gen.arc.kb), FULL_RANGE)])
        else:
            ends = (pieces(gen.e0, gen.domain), pieces(gen.e1, gen.domain))
        for c, d in _meeting_cells(*ends):
            partners[c] |= 1 << d
            partners[d] |= 1 << c
    return partners


def _missed_window_arc(t: Triangulation, w: Window) -> Optional[Arc]:
    """The first window arc, in :func:`window_arcs` order, that is neither in t
    nor crossed by an instance of t.

    Whether an instance crosses a window arc depends only on the cells of its
    ends, so each generator is placed among the cells once.  Window arc
    (i, j) is then in t when cell 2j is a partner of cell 2i, and crossed
    when a cell strictly between 2i and 2j has a partner strictly outside
    [2i, 2j]: the partners of the cells between grow with j.
    """
    partners = _cell_partners(t, w)
    pts = w.points
    keys = [p.circuit_key() for p in pts]
    for i in range(len(pts)):
        before = (1 << 2 * i) - 1
        inside = 0  # the partners of the cells strictly between 2i and 2j
        for j in range(i + 1, len(pts)):
            inside |= partners[2 * j - 1]
            # Arc refuses two points one apart on one interval, which are consecutive in the window
            adjacent = j == i + 1 and keys[j][0] == keys[i][0] and keys[j][1] - keys[i][1] == 1
            if not adjacent and not partners[2 * i] >> 2 * j & 1 and not (inside >> 2 * j + 1 or inside & before):
                return Arc(pts[i], pts[j])
            inside |= partners[2 * j]
    return None


def window_check(t: Triangulation, w: Window) -> bool:
    """Local maximality: every window arc is in t or crosses an instance of t.

    Decided without the solver, in one sweep over the window's points and
    the open gaps between them (see :func:`_missed_window_arc`).
    """
    return _missed_window_arc(t, w) is None


def _window_claim_held(t: Triangulation) -> Triangulation:
    """t, once the window claim of its certificate holds; else the first window arc missed is named."""
    missed = _missed_window_arc(t, t.certificate.window)
    if missed is not None:
        raise TriangulationError(
            f"window certificate fails: {format_arc(missed)} is neither in the triangulation nor crossed by it"
        )
    return t


def from_window_set(w: Window, arcs: Iterable[Arc]) -> Triangulation:
    """Package a maximal window arc set as a triangulation claiming maximality within w."""
    gens = tuple(Single(a) for a in sorted(set(arcs), key=arc_key))
    return _window_claim_held(Triangulation(w.surface, gens, Certificate(w)))


# --- limits of families ------------------------------------------------------


class LimitKind(Enum):
    ARC = "arc"
    ACCUMULATION_POINT = "accumulation-point"


@dataclass(frozen=True)
class FamilyLimit:
    kind: LimitKind
    arc: Optional[Arc] = None
    point: Optional[Point] = None


def limit_of_family(surface: Surface, fam: Family, end: int | None = None) -> FamilyLimit:
    """Limit of a fan family whose moving endpoint escapes to an accumulation point.

    The moving endpoint converges to the accumulation point q closing its
    interval in the direction of escape.  The family converges to the arc
    from the fixed endpoint p to q, and degenerates to the point q when
    p == q.  An accumulation point is adjacent to no point, so p and q never
    bound a boundary segment.
    """
    if not surface.completed:
        raise ValueError("limits of families exist on completed surfaces only")
    p = fam.fixed_endpoint
    if p is None:
        raise ValueError("limit needs a family with a fixed endpoint")
    mov = fam.moving_endpoints[0]
    ends = []
    if fam.domain.hi is None:
        ends.append(1)
    if fam.domain.lo is None:
        ends.append(-1)
    if not ends:
        raise ValueError("family domain is bounded; no limit to take")
    if end is None:
        if len(ends) > 1:
            raise ValueError("domain unbounded on both sides; pass end=+1 or end=-1")
        end = ends[0]
    if end not in ends:
        raise ValueError(f"domain is bounded on the requested side (end={end})")
    gap, _ = _escape(mov, end, surface.intervals)
    q = Point(surface, gap, None)
    if p == q:
        return FamilyLimit(LimitKind.ACCUMULATION_POINT, point=q)
    return FamilyLimit(LimitKind.ARC, arc=Arc(p, q))


# --- orientation reversal and neighbour scans --------------------------------


def reverse_point(p: Point) -> Point:
    n = p.surface.intervals
    if p.pos is None:
        return Point(p.surface, ((n - p.interval - 1) % n) + 1, None)
    return Point(p.surface, n + 1 - p.interval, -p.pos)


def reverse_arc(a: Arc) -> Arc:
    return Arc(reverse_point(a.a), reverse_point(a.b))


def _reverse_moving(m: Moving, n: int) -> Moving:
    return Moving(n + 1 - m.interval, -m.base, -m.stride)


def _reverse_generator(gen: Generator, n: int) -> Generator:
    if isinstance(gen, Single):
        return Single(reverse_arc(gen.arc))
    e0 = _reverse_moving(gen.e0, n) if isinstance(gen.e0, Moving) else reverse_point(gen.e0)
    e1 = _reverse_moving(gen.e1, n) if isinstance(gen.e1, Moving) else reverse_point(gen.e1)
    return Family(e0, e1, gen.domain)


def reverse_triangulation(t: Triangulation) -> Triangulation:
    """The mirror image of t; its left scans are the right scans of t, reversed."""
    n = t.surface.intervals
    return Triangulation(t.surface, tuple(_reverse_generator(g, n) for g in t.generators))


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class Progression:
    """Affine progression of boundary points within one interval."""

    interval: int
    base: int
    stride: int
    domain: IntRange

    def position_range(self) -> IntRange:
        return Moving(self.interval, self.base, self.stride).position_range(self.domain)

    def clip_positions(self, lo: int | None, hi: int | None) -> Optional["Progression"]:
        m = Moving(self.interval, self.base, self.stride)
        params = self.domain.intersect(m.params_with_pos_in(lo, hi))
        if params.is_empty:
            return None
        return Progression(self.interval, self.base, self.stride, params)


class NeighborScan(NamedTuple):
    """Partner points of triangulation arcs at one endpoint, on one side.

    ``extremum`` is the maximum (left scans) or minimum (right scans) in the
    boundary order towards the far endpoint; None when the scan is empty or
    the bound is not attained.  ``empty`` distinguishes the two cases.
    """

    arc: Arc
    endpoint: Point
    side: Side
    singles: tuple[Point, ...]
    progressions: tuple[Progression, ...]
    extremum: Optional[Point]
    empty: bool


def _partners(t: Triangulation, e: Point, ke: tuple[int, int]) -> tuple[Sequence[_Partner], list[Progression]]:
    """Partners of e, whose circuit key is ke, in t.

    Single partners come as ``(generator position, point, circuit key)`` in
    generator order, read from the endpoint index and merged with the
    instances of families moving through e; progressions are those of the
    families fixed at e.
    """
    indexed = t._ends.get(ke, ())
    if not t._families:
        return indexed, []
    singles = list(indexed)
    progs: list[Progression] = []
    for i, gen in t._families:
        for which, tpar in gen.ends_at(e).items():
            if tpar is None:  # fixed at e: the other end moves
                other = gen.e1 if which == 0 else gen.e0
                progs.append(Progression(other.interval, other.base, other.stride, gen.domain))
            else:
                q = gen.endpoint_at(e.surface, 1 - which, tpar)
                singles.append((i, q, q.circuit_key()))
    singles.sort(key=itemgetter(0))  # stable: one family's two partners keep their order
    return singles, progs


def neighbor_scan(t: Triangulation, a: Arc, endpoint: Point, side: Side) -> NeighborScan:
    """Partner points w of arcs {endpoint, w} in t lying on the given side of a.

    At an endpoint e of a = {e, o} the left side is the open boundary
    interval walked anticlockwise from e to o, and the right side is the
    complementary open interval walked clockwise from e to o.  The walk
    passes accumulation points and runs of regular points of one interval in
    turn.  Single partners and progressions are listed run by run in that
    order, and in generator order within one run, not by position.  The
    extremum is the partner nearest o: the largest position on the left, the
    smallest on the right.

    Every partner is placed by a walking key ``(lap, slot, pos)`` from e,
    negated on the clockwise side, where lap counts passes over the start of
    the circuit; a partner lies on the side when its key is below o's.  The
    positions of a progression form one run per lap: two on e's own
    interval, split at e, and one elsewhere.  A run whose ``(lap, slot)`` is
    o's is clipped to stop one position short of o.
    """
    ke = endpoint.circuit_key()
    if endpoint.surface is not a.surface or ke not in (a.ka, a.kb):
        raise ValueError("scan endpoint must belong to the arc")
    ko = a.kb if ke == a.ka else a.ka
    singles, progs = _partners(t, endpoint, ke) if a.surface is t.surface else ((), [])
    left = side is Side.LEFT
    if left:
        walk = lambda k: (k < ke, k[0], k[1])
    else:
        walk = lambda k: (k > ke, -k[0], -k[1])
    far = walk(ko)
    kept: list[tuple[tuple, Point]] = []
    member = False  # a is in t exactly when o is one of the partners at e
    for _, p, k in singles:
        w = walk(k)
        if w < far:
            kept.append((w, p))
        elif k == ko:
            member = True
    kept.sort(key=lambda c: c[0][:2])  # run by run; stable, so generator order within a run
    # extremum candidates: (walking key, point), None for a progression running on towards o
    candidates: list[tuple[tuple, Optional[Point]]] = list(kept)

    clipped: list[tuple[tuple, Progression]] = []
    for pr in progs:
        slot = 2 * pr.interval - 1
        # (a position of the run, lo, hi) for each run of the progression's interval
        runs = ((ke[1] + 1, ke[1] + 1, None), (ke[1] - 1, None, ke[1] - 1)) if slot == ke[0] else ((0, None, None),)
        for pos, lo, hi in runs:
            run = walk((slot, pos))[:2]
            if run > far[:2]:
                continue
            if run == far[:2]:
                member = member or pr.clip_positions(ko[1], ko[1]) is not None
                lo, hi = (lo, ko[1] - 1) if left else (ko[1] + 1, hi)
            c = pr.clip_positions(lo, hi)
            if c is None:
                continue
            clipped.append((run, c))
            r = c.position_range()
            bound = r.hi if left else r.lo
            if bound is None:
                candidates.append((run + (math.inf,), None))
            else:
                candidates.append((walk((slot, bound)), Point(t.surface, pr.interval, bound)))
    if not member:
        raise TriangulationError(f"arc {format_arc(a)} is not in the triangulation")
    clipped.sort(key=itemgetter(0))  # stable, as for the singles

    extremum = max(candidates, key=itemgetter(0))[1] if candidates else None
    empty = not kept and not clipped
    return NeighborScan(a, endpoint, side, tuple(p for _, p in kept), tuple(c for _, c in clipped), extremum, empty)


# --- JSON round trip ----------------------------------------------------------


def _endpoint_to_json(e: Endpoint):
    if isinstance(e, Moving):
        return {"interval": e.interval, "base": e.base, "stride": e.stride}
    return format_point(e)


def _json_value(value, kind: type, field: str):
    """A JSON value of exactly this type: a bool or a float is not an int."""
    if type(value) is not kind:
        raise ValueError(f"{field} must be a JSON {kind.__name__}, got {reprlib.repr(value)}")
    return value


def _json_record(value, record: str, keys: tuple[str, ...]) -> dict:
    """A JSON dict with no key outside ``keys``: a misspelt key is refused, not ignored."""
    for key in _json_value(value, dict, record):
        if key not in keys:
            raise ValueError(f"unknown key {reprlib.repr(key)} in {record} (known: {', '.join(keys)})")
    return value


def _endpoint_from_json(surface: Surface, obj, field: str) -> Endpoint:
    if isinstance(obj, str):
        return parse_point(surface, obj)
    obj = _json_record(obj, f"family {field}", ("interval", "base", "stride"))
    return Moving(*(_json_value(obj[f], int, f"moving endpoint {f}") for f in ("interval", "base", "stride")))


def triangulation_to_json(t: Triangulation) -> dict:
    gens = []
    for gen in t.generators:
        if isinstance(gen, Single):
            gens.append({"single": format_arc(gen.arc)})
        else:
            gens.append(
                {
                    "family": {
                        "e0": _endpoint_to_json(gen.e0),
                        "e1": _endpoint_to_json(gen.e1),
                        "domain": [gen.domain.lo, gen.domain.hi],
                    }
                }
            )
    doc = {"surface": t.surface.describe(), "generators": gens}
    if t.certificate == CERTIFIED_MAXIMAL:
        doc["certificate"] = "maximal"
    elif t.certificate is not None:
        doc["certificate"] = {"window": [format_point(p) for p in t.certificate.window.points]}
    return doc


def triangulation_from_json(doc: dict) -> Triangulation:
    if isinstance(doc, dict):  # any other document is refused by its first lookup
        _json_record(doc, "triangulation document", ("surface", "generators", "certificate"))
    surface = parse_surface(_json_value(doc["surface"], str, "surface"))
    items = _json_value(doc["generators"], list, "generators")
    limits.require(len(items), limits.GENERATOR_LIMIT, limits.GENERATORS)  # before any entry is parsed
    gens: list[Generator] = []
    for item in items:
        _json_record(item, "generator record", ("single", "family"))
        if "single" in item and "family" in item:
            raise ValueError("generator record holds both 'single' and 'family'")
        if "single" in item:
            gens.append(Single(parse_arc(surface, _json_value(item["single"], str, "single arc"))))
        elif "family" in item:
            f = _json_record(item["family"], "family record", ("e0", "e1", "domain"))
            domain = _json_value(f["domain"], list, "family domain")
            if len(domain) != 2:
                raise ValueError(f"family domain must be [lo, hi], got {reprlib.repr(domain)}")
            lo, hi = (None if b is None else _json_value(b, int, "domain bound") for b in domain)
            gens.append(
                Family(
                    _endpoint_from_json(surface, f["e0"], "e0"),
                    _endpoint_from_json(surface, f["e1"], "e1"),
                    IntRange(lo, hi),
                )
            )
        else:
            raise ValueError(f"unknown generator record {item!r}")
    cert = None
    spec = doc.get("certificate")
    if spec == "maximal":
        cert = CERTIFIED_MAXIMAL
    elif isinstance(spec, dict) and spec:
        spec = _json_record(spec, "window certificate", ("window",))
        window = _json_value(spec["window"], list, "certificate window")
        limits.require(len(window), limits.POINT_LIMIT, limits.WINDOW_POINTS)
        pts = tuple(parse_point(surface, _json_value(s, str, "window point")) for s in window)
        cert = Certificate(Window(surface, pts))
    elif spec is not None:
        raise ValueError(f'certificate must be "maximal" or {{"window": [...]}}, got {reprlib.repr(spec)}')
    t = Triangulation(surface, tuple(gens), cert)
    # a window certificate is a claim the file makes: check it here, where it
    # enters, and not in the constructor, which every flip also runs
    return t if cert is None or cert.window is None else _window_claim_held(t)
