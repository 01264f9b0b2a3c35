"""Exact feasibility for linear inequalities in at most two integer unknowns.

The triangulation store presents every pairwise question about two affine
arc families (do two instances cross, coincide?) as a small system of
strict integer inequalities in the two family parameters.  This module
decides such systems exactly, including the thin-strip cases where
rational relaxation admits points but the integers do not, and returns a
witness assignment when one exists.  A fixed arc against a family is a
question in one parameter, answered by ``solve_1var_range``.

Inequalities are written a*i + b*j + c >= 0.  Symbolic boundary points are
(slot, affine) pairs: slot is the circuit slot of the interval, affine is
(coef_i, coef_j, const) for a regular point's position, or None for an
accumulation point (which is the unique point of its slot).

The DNF builders (``orient_``, ``cross_`` and ``eq_conjunctions``) own atom
reduction: they drop the atoms decided true without the solver, skip every
conjunction holding an atom decided false, and return the rest in a fixed
order as lists of ``LinIneq``, ready for the solver as they stand.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import NamedTuple, Optional, Sequence


class LinIneq(NamedTuple):
    a: int  # coefficient on i
    b: int  # coefficient on j
    c: int  # constant

    def eval(self, i: int, j: int) -> int:
        return self.a * i + self.b * j + self.c


@dataclass(frozen=True)
class IntRange:
    """Closed integer range; None bound means unbounded on that side."""

    lo: int | None
    hi: int | None

    @property
    def is_empty(self) -> bool:
        return self.lo is not None and self.hi is not None and self.lo > self.hi

    @property
    def is_bounded(self) -> bool:
        return self.lo is not None and self.hi is not None

    def contains(self, v: int) -> bool:
        return (self.lo is None or v >= self.lo) and (self.hi is None or v <= self.hi)

    def intersect(self, other: "IntRange") -> "IntRange":
        lo = self.lo if other.lo is None else (other.lo if self.lo is None else max(self.lo, other.lo))
        hi = self.hi if other.hi is None else (other.hi if self.hi is None else min(self.hi, other.hi))
        return IntRange(lo, hi)

    def iterate(self):
        if not self.is_bounded:
            raise ValueError("cannot iterate an unbounded range")
        return range(self.lo, self.hi + 1)

    def witness(self) -> int:
        """The member a solver reports: the lower bound, else the upper, else 0."""
        return self.lo if self.lo is not None else 0 if self.hi is None else self.hi


FULL_RANGE = IntRange(None, None)
EMPTY_RANGE = IntRange(0, -1)


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def range_ineqs(r: IntRange, var: int) -> list[LinIneq]:
    out = []
    if r.lo is not None:
        out.append(LinIneq(1, 0, -r.lo) if var == 0 else LinIneq(0, 1, -r.lo))
    if r.hi is not None:
        out.append(LinIneq(-1, 0, r.hi) if var == 0 else LinIneq(0, -1, r.hi))
    return out


def solve_1var(ineqs: Sequence[tuple[int, int]]) -> Optional[int]:
    """Find an integer i with a*i + c >= 0 for every (a, c), or None."""
    r = solve_1var_range(ineqs)
    return None if r is None else r.witness()


def solve_1var_range(ineqs: Sequence[tuple[int, int]]) -> Optional[IntRange]:
    """The full solution range of a one-variable system, or None when empty."""
    lo: int | None = None
    hi: int | None = None
    for a, c in ineqs:
        if a == 0:
            if c < 0:
                return None
        elif a > 0:
            bound = _ceil_div(-c, a)
            lo = bound if lo is None else max(lo, bound)
        else:
            bound = c // (-a)
            hi = bound if hi is None else min(hi, bound)
    if lo is not None and hi is not None and lo > hi:
        return None
    return IntRange(lo, hi)


def _mod_inverse(a: int, m: int) -> int:
    return pow(a % m, -1, m)


def solve_2var(
    ineqs: Sequence[LinIneq],
    i_range: IntRange = FULL_RANGE,
    j_range: IntRange = FULL_RANGE,
) -> Optional[tuple[int, int]]:
    """Find integers (i, j) satisfying every inequality, or None.

    Variable elimination with dark shadows, falling back to modular
    splinters when coefficients exceed one, so the answer is exact for
    arbitrary integer coefficients.  An empty real shadow ends the search
    before any splinter.
    """
    system = list(ineqs) + range_ineqs(i_range, 0) + range_ineqs(j_range, 1)
    i_only: list[tuple[int, int]] = []
    lowers: list[tuple[int, int, int]] = []  # b*j >= -a*i - c  stored as (b, a, c)
    uppers: list[tuple[int, int, int]] = []  # d*j <= a*i + c   stored as (d, a, c)
    for q in system:
        if q.b == 0:
            if q.a == 0:
                if q.c < 0:
                    return None
            else:
                i_only.append((q.a, q.c))
        elif q.b > 0:
            lowers.append((q.b, q.a, q.c))
        else:
            uppers.append((-q.b, q.a, q.c))

    def j_for(i: int) -> Optional[int]:
        return solve_1var([(b, a * i + c) for b, a, c in lowers] + [(-d, a * i + c) for d, a, c in uppers])

    real = list(i_only)
    dark = list(i_only)
    exact = True
    for b, aL, cL in lowers:
        for d, aU, cU in uppers:
            # real shadow: b*(aU*i + cU) - d*(-aL*i - cL) >= 0
            coef = b * aU + d * aL
            const = b * cU + d * cL
            slack = (b - 1) * (d - 1)
            real.append((coef, const))
            dark.append((coef, const - slack))
            if slack:
                exact = False
    i = solve_1var(dark)
    if i is not None:
        j = j_for(i)
        if j is not None:
            return (i, j)
    # with no rational point there is no integer point
    if exact or solve_1var_range(real) is None:
        return None

    # Splinter search: any solution missed by the dark shadow has
    # b*j = -aL*i - cL + t for some lower bound and small offset t.
    dmax = max(d for d, _, _ in uppers)
    for b, aL, cL in lowers:
        if b == 1:
            continue
        t_max = (b * dmax - b - dmax) // dmax
        g = gcd(aL % b, b)
        modulus = b // g
        for t in range(t_max + 1):
            rhs = (t - cL) % b
            if rhs % g:
                continue
            residue = ((rhs // g) * _mod_inverse((aL % b) // g, modulus)) % modulus
            # substitute i = residue + modulus*s and b*j = -aL*i - cL + t
            sub: list[tuple[int, int]] = []
            for q in system:
                a2 = q.a * b - q.b * aL
                sub.append((a2 * modulus, a2 * residue + q.c * b + q.b * (t - cL)))
            s = solve_1var(sub)
            if s is None:
                continue
            i = residue + modulus * s
            # g divides aL, so aL*residue = t - cL (mod b) and b divides the numerator
            j = (-aL * i - cL + t) // b
            if all(q.eval(i, j) >= 0 for q in system):
                return (i, j)
    return None


# --- symbolic boundary points -------------------------------------------

SymPoint = tuple  # (slot: int, affine: tuple[int, int, int] | None)


def sym_lt(p: SymPoint, q: SymPoint):
    """Strict circuit-key comparison; True/False when decided, else a LinIneq."""
    sp, ap = p
    sq, aq = q
    if sp != sq:
        return sp < sq
    if ap is None or aq is None:
        return False  # a slot holds at most one accumulation point
    a, b, c = aq[0] - ap[0], aq[1] - ap[1], aq[2] - ap[2] - 1
    return c >= 0 if a == b == 0 else LinIneq(a, b, c)


def sym_eq_atoms(p: SymPoint, q: SymPoint):
    """Conjunction of atoms expressing p == q, or False when impossible."""
    sp, ap = p
    sq, aq = q
    if sp != sq:
        return False
    # a slot's parity fixes whether its points accumulate: both or neither is None
    if ap is None:
        return []
    a, b, c = aq[0] - ap[0], aq[1] - ap[1], aq[2] - ap[2]
    if a == b == 0:
        return [] if c == 0 else False
    return [LinIneq(a, b, c), LinIneq(-a, -b, -c)]


def orient_conjunctions(a: SymPoint, b: SymPoint, c: SymPoint) -> list[list[LinIneq]]:
    """Reduced DNF for strict anticlockwise orientation of three symbolic points."""
    ab, bc, ca = sym_lt(a, b), sym_lt(b, c), sym_lt(c, a)
    return [
        [atom for atom in conj if atom is not True]
        for conj in ((ab, bc), (bc, ca), (ca, ab))
        if all(atom is not False for atom in conj)
    ]


def cross_conjunctions(pair_a: tuple[SymPoint, SymPoint], pair_b: tuple[SymPoint, SymPoint]) -> list[list[LinIneq]]:
    """Reduced DNF whose satisfiability states that the two symbolic arcs cross.

    Strict cyclic orientation of distinct points already forces all four
    endpoints pairwise distinct, so no separate disequalities are needed.
    """
    p1, p2 = pair_a
    q1, q2 = pair_b
    out = []
    for r, s in ((q1, q2), (q2, q1)):
        second = orient_conjunctions(p2, s, p1)
        for c1 in orient_conjunctions(p1, r, p2):
            out.extend(c1 + c2 for c2 in second)
    return out


def eq_conjunctions(pair_a: tuple[SymPoint, SymPoint], pair_b: tuple[SymPoint, SymPoint]) -> list[list[LinIneq]]:
    """Reduced DNF whose satisfiability states that the two symbolic arcs are equal."""
    p1, p2 = pair_a
    out = []
    for r, s in (pair_b, pair_b[::-1]):
        c1, c2 = sym_eq_atoms(p1, r), sym_eq_atoms(p2, s)
        if c1 is not False and c2 is not False:
            out.append(c1 + c2)
    return out


def conjunction_model(
    atoms: Sequence[LinIneq], i_range: IntRange, j_range: IntRange, extra: Sequence[LinIneq] = ()
) -> Optional[tuple[int, int]]:
    """A model of one reduced conjunction, with ``extra`` ahead of its atoms."""
    return solve_2var([*extra, *atoms], i_range, j_range)
