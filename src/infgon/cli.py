"""Command-line front end.

Structured JSON goes to stdout (sorted keys, so repeated runs are byte
identical); ``--pretty`` switches to aligned key/value lines.  Exit codes:
0 success, 1 verification failure, 2 usage or parse error or a query over
a resource limit.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import TYPE_CHECKING, Sequence

from . import limits
from .arcs import Arc, ArcClass, classify, cross_transverse, format_arc, parse_arc
from .surface import Surface, format_point, parse_point, parse_surface

if TYPE_CHECKING:
    from .triangulation import Triangulation

# Each verb imports the layers it queries when it runs, after parsing its
# tokens, so a cold call loads only its own closure, and a refused token
# loads no layer that parsing it does not need (``tests/test_layers.py``
# pins both).  Each verb returns its payload and exit code; ``main`` alone
# prints the payload.

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

_FAMILY_NAMES = {"all": None, "collapsing": ArcClass.COLLAPSING, "persistent": ArcClass.PERSISTENT}


class UsageError(Exception):
    pass


def _emit(payload: dict, pretty: bool) -> None:
    if pretty:
        width = max((len(k) for k in payload), default=0)
        for k in sorted(payload):
            print(f"{k.ljust(width)}  {payload[k]}")
    else:
        print(json.dumps(payload, sort_keys=True))


_FOUNTAIN_RE = re.compile(r"^fountain\((completed:\d+|uncompleted:\d+)\s*,\s*([^)]+)\)$")
_ZIGZAG_RE = re.compile(r"^zigzag\((completed:\d+)\)$")


def _load_triangulation(token: str) -> Triangulation:
    from .triangulation import build_fountain, canonical_zigzag, triangulation_from_json

    m = _FOUNTAIN_RE.match(token.strip())
    if m:
        surface = parse_surface(m.group(1))
        return build_fountain(surface, parse_point(surface, m.group(2).strip()))
    m = _ZIGZAG_RE.match(token.strip())
    if m:
        return canonical_zigzag(parse_surface(m.group(1)))
    try:
        with open(token, "r", encoding="utf-8") as fh:
            return triangulation_from_json(json.load(fh))
    except FileNotFoundError:
        raise UsageError(f"triangulation {token!r}: no such file and not an inline builder spec")
    except OSError as exc:
        raise UsageError(f"triangulation {token!r}: cannot read the file ({exc.strerror})")
    except KeyError as exc:
        raise UsageError(f"triangulation {token!r}: missing field {exc}")
    except TypeError as exc:
        raise UsageError(f"triangulation {token!r}: malformed document ({exc})")
    except RecursionError:
        raise UsageError(f"triangulation {token!r}: nested too deeply")
    except json.JSONDecodeError as exc:
        raise UsageError(f"triangulation {token!r}: not a JSON document ({exc})")
    except UnicodeDecodeError as exc:
        raise UsageError(f"triangulation {token!r}: not UTF-8 text ({exc})")


def _write_out(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"--out {path!r}: cannot write the file ({exc.strerror})")


def _flavoured(args, surface: Surface, completed: bool | None) -> Surface:
    """The parsed --surface, refused when the verb applies to the other flavour only."""
    if completed is not None and surface.completed != completed:
        flavour = "completed" if completed else "uncompleted"
        raise UsageError(f"{args.verb} applies to {flavour} surfaces only, got {args.surface!r}")
    return surface


def _arc_pair(args, completed: bool | None = None) -> tuple[Arc, Arc]:
    surface = _flavoured(args, parse_surface(args.surface), completed)
    return parse_arc(surface, args.src), parse_arc(surface, args.dst)


def _cmd_hom(args) -> tuple[dict, int]:
    g, d = _arc_pair(args)
    from .homs import hom_dim

    return {"dim": hom_dim(g, d)}, EXIT_OK


def _cmd_ext(args) -> tuple[dict, int]:
    g, d = _arc_pair(args, completed=True)
    from .homs import ext_case, ext_dim

    return {"dim": ext_dim(g, d), "case": ext_case(g, d).value}, EXIT_OK


def _cmd_ext_oracle(args) -> tuple[dict, int]:
    g, d = _arc_pair(args, completed=True)
    from .homs import ext_dim_oracle

    return {"dim": ext_dim_oracle(g, d)}, EXIT_OK


def _cmd_cross(args) -> tuple[dict, int]:
    g, d = _arc_pair(args)
    return {"cross": cross_transverse(g, d)}, EXIT_OK


def _cmd_factor(args) -> tuple[dict, int]:
    g, d = _arc_pair(args, completed=False)
    from .homs import factors_over, hom_dim

    if not hom_dim(g, d):
        raise UsageError(f"factor needs a nonzero morphism from {args.src} to {args.dst}")
    fam = _FAMILY_NAMES[args.family]
    return {"factors": factors_over(g, d, fam), "family": args.family}, EXIT_OK


def _cmd_classify(args) -> tuple[dict, int]:
    surface = _flavoured(args, parse_surface(args.surface), completed=False)
    arc = parse_arc(surface, args.arc)
    return {"class": classify(arc).value}, EXIT_OK


def _cmd_validate(args) -> tuple[dict, int]:
    t = _load_triangulation(args.triangulation)
    from .triangulation import validate_non_crossing

    report = validate_non_crossing(t)
    payload = {"ok": report.ok}
    if report.witness:
        payload["witness"] = [format_arc(a) for a in report.witness]
    return payload, EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def _cmd_window_ct(args) -> tuple[dict, int]:
    surface = parse_surface(args.surface)
    from .homs import is_weak_ct
    from .triangulation import Window, window_arcs, window_brute_force

    include_accumulation = not args.no_accumulation
    limits.require(Window.symmetric_size(surface, args.bound, include_accumulation), limits.WINDOW_POINT_LIMIT,
                   limits.WINDOW_POINTS)
    _flavoured(args, surface, completed=True)
    window = Window.symmetric(surface, args.bound, include_accumulation)
    sets = window_brute_force(window)
    arcs = window_arcs(window)
    weak_ct = sum(1 for T in sets if is_weak_ct(arcs, T))
    payload = {
        "points": len(window.points),
        "maximal_non_crossing": len(sets),
        "weak_cluster_tilting": weak_ct,
        "match": weak_ct == len(sets),
    }
    return payload, EXIT_OK if payload["match"] else EXIT_VERIFY_FAILED


def _cmd_leapfrog(args) -> tuple[dict, int]:
    t = _load_triangulation(args.triangulation)
    from .triangulation import detect_leapfrog

    w = detect_leapfrog(t)
    if w is None:
        return {"leapfrog": False}, EXIT_OK
    return {
        "leapfrog": True,
        "offset": w.offset,
        "direction": w.direction,
        "curve_ends": list(w.curve_ends),
    }, EXIT_OK


def _cmd_limit(args) -> tuple[dict, int]:
    surface = _flavoured(args, parse_surface(args.surface), completed=True)
    fixed = parse_point(surface, args.fixed)
    from .triangulation import Family, IntRange, Moving, limit_of_family

    fam = Family(fixed, Moving(args.interval, args.base, args.stride), IntRange(args.lo, args.hi))
    res = limit_of_family(surface, fam, end=args.end)
    payload = {"kind": res.kind.value}
    if res.arc is not None:
        payload["arc"] = format_arc(res.arc)
    if res.point is not None:
        payload["point"] = format_point(res.point)
    return payload, EXIT_OK


def _frame_cell(entry) -> str:
    from .mutation import UNDEFINED

    return "undefined" if entry is UNDEFINED else format_point(entry)


def _cmd_frame(args) -> tuple[dict, int]:
    t = _load_triangulation(args.triangulation)
    a = parse_arc(t.surface, args.arc)
    from .mutation import quad_frame

    f = quad_frame(t, a)
    return {
        "u": format_point(f.u),
        "v": format_point(f.v),
        "u_left": _frame_cell(f.u_left),
        "u_right": _frame_cell(f.u_right),
        "v_left": _frame_cell(f.v_left),
        "v_right": _frame_cell(f.v_right),
    }, EXIT_OK


def _cmd_approx(args) -> tuple[dict, int]:
    t = _load_triangulation(args.triangulation)
    a = parse_arc(t.surface, args.arc)
    from .mutation import approximate
    from .triangulation import Side

    side = Side.LEFT if args.side == "left" else Side.RIGHT
    res = approximate(t, a, side)
    if res.exists:
        return {"exists": True, "summands": [format_arc(s) for s in res.summands]}, EXIT_OK
    scan = res.failed_scan
    witness = [format_point(p) for p in scan.singles] + [
        f"{pr.interval}:{pr.base}{'+' if pr.stride > 0 else ''}{pr.stride}t" for pr in scan.progressions
    ]
    return {"exists": False, "reason": "NoExtremum", "witness": witness}, EXIT_OK


def _cmd_mutable(args) -> tuple[dict, int]:
    t = _load_triangulation(args.triangulation)
    a = parse_arc(t.surface, args.arc)
    from .mutation import mutability_report

    ok, reason, _frame = mutability_report(t, a)
    payload = {"mutable": ok}
    if reason:
        payload["reason"] = reason
    return payload, EXIT_OK


def _cmd_flip(args) -> tuple[dict, int]:
    t = _load_triangulation(args.triangulation)
    a = parse_arc(t.surface, args.arc)
    from .mutation import MutabilityError, flip
    from .triangulation import triangulation_to_json

    try:
        res = flip(t, a)
    except MutabilityError as exc:
        return {"flipped": False, "reason": exc.reason}, EXIT_VERIFY_FAILED
    payload = {
        "flipped": True,
        "new_arc": format_arc(res.new_arc),
        "conflations": [
            {
                "start": format_arc(c.start),
                "middle": [None if m is None else format_arc(m) for m in c.middle],
                "end": format_arc(c.end),
            }
            for c in res.conflations
        ],
    }
    if args.out:
        _write_out(args.out, json.dumps(triangulation_to_json(res.new_triangulation), sort_keys=True, indent=1))
        payload["written"] = args.out
    return payload, EXIT_OK


def _cmd_approx_object(args) -> tuple[dict, int]:
    t = _load_triangulation(args.triangulation)
    g = parse_arc(t.surface, args.arc)
    from .mutation import NotFinitelyGenerated, right_module_generators

    res = right_module_generators(t, g)
    if isinstance(res, NotFinitelyGenerated):
        return {"finite": False, "witness": res.description}, EXIT_OK
    return {"finite": True, "generators": [format_arc(a) for a in res]}, EXIT_OK


def _cmd_render(args) -> tuple[dict, int]:
    if args.triangulation:
        given = [flag for flag, value in (("--surface", args.surface), ("--arcs", args.arcs)) if value is not None]
        if given:
            raise UsageError("render takes --triangulation or --surface with --arcs, "
                             f"not --triangulation with {' and '.join(given)}")
        t = _load_triangulation(args.triangulation)
        surface = t.surface
    elif args.surface is None:
        raise UsageError("render needs --triangulation, or --surface with --arcs")
    else:
        surface = parse_surface(args.surface)
        arcs = dict.fromkeys(parse_arc(surface, tok) for tok in args.arcs or ())
    highlight = tuple(parse_arc(surface, h) for h in args.highlight)
    from .render import RenderSpec, render_svg
    from .triangulation import Single, Triangulation

    spec = RenderSpec(radius=args.radius, highlight=highlight)
    if not args.triangulation:
        # an arc list is drawn as the triangulation of its distinct arcs, claiming nothing
        t = Triangulation(surface, tuple(Single(a) for a in arcs))
    svg = render_svg(t, spec)
    _write_out(args.out, svg)
    return {
        "written": args.out,
        "points": svg.count('class="pt"') + svg.count('class="acc"'),
        "arcs": svg.count('class="arc'),
    }, EXIT_OK


def _cmd_verify_suite(args) -> tuple[dict, int]:
    from . import acceptance  # only this verb runs the batteries

    results = acceptance.run_all(args.level)
    for r in results:
        print(r.line(), file=sys.stderr)
    passed = sum(1 for r in results if r.passed)
    payload = {"passed": passed, "failed": len(results) - passed, "level": args.level}
    return payload, EXIT_OK if passed == len(results) else EXIT_VERIFY_FAILED


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="infgon", description=__doc__)
    ap.add_argument("--pretty", action="store_true", help="aligned key/value output instead of JSON")
    sub = ap.add_subparsers(dest="verb", required=True)

    def pair(p):
        p.add_argument("--surface", required=True)
        p.add_argument("--from", dest="src", required=True, help="first arc, e.g. 1:0-2:3")
        p.add_argument("--to", dest="dst", required=True, help="second arc")

    p = sub.add_parser("hom", help="morphism space dimension between two arcs")
    pair(p)
    p.set_defaults(run=_cmd_hom)

    p = sub.add_parser("ext", help="restricted extension dimension and its case")
    pair(p)
    p.set_defaults(run=_cmd_ext)

    p = sub.add_parser("ext-oracle", help="extension dimension recomputed from the factorization oracle")
    pair(p)
    p.set_defaults(run=_cmd_ext_oracle)

    p = sub.add_parser("cross", help="transverse crossing of two arcs")
    pair(p)
    p.set_defaults(run=_cmd_cross)

    p = sub.add_parser("factor", help="does a nonzero map factor through an arc class")
    pair(p)
    p.add_argument("--family", choices=sorted(_FAMILY_NAMES), default="all")
    p.set_defaults(run=_cmd_factor)

    p = sub.add_parser("classify", help="squeeze behaviour of an uncompleted arc")
    p.add_argument("--surface", required=True)
    p.add_argument("--arc", required=True)
    p.set_defaults(run=_cmd_classify)

    p = sub.add_parser("validate", help="check a triangulation file for crossings")
    p.add_argument("--triangulation", required=True)
    p.set_defaults(run=_cmd_validate)

    p = sub.add_parser("window-ct", help="compare maximal non-crossing sets with weak cluster-tilting sets")
    p.add_argument("--surface", required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--no-accumulation", action="store_true")
    p.set_defaults(run=_cmd_window_ct)

    p = sub.add_parser("leapfrog", help="detect an infinite leapfrog in a triangulation")
    p.add_argument("--triangulation", required=True)
    p.set_defaults(run=_cmd_leapfrog)

    p = sub.add_parser("limit", help="limit of a fan family")
    p.add_argument("--surface", required=True)
    p.add_argument("--fixed", required=True, help="fixed endpoint, e.g. 1:0 or a1")
    p.add_argument("--interval", type=int, required=True)
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--stride", type=int, required=True)
    p.add_argument("--lo", type=int, default=None)
    p.add_argument("--hi", type=int, default=None)
    p.add_argument("--end", type=int, choices=(1, -1), default=None)
    p.set_defaults(run=_cmd_limit)

    p = sub.add_parser("frame", help="quadrilateral frame of an arc in a triangulation")
    p.add_argument("--triangulation", required=True)
    p.add_argument("--arc", required=True)
    p.set_defaults(run=_cmd_frame)

    p = sub.add_parser("approx", help="one-sided approximation of an arc")
    p.add_argument("--triangulation", required=True)
    p.add_argument("--arc", required=True)
    p.add_argument("--side", choices=("left", "right"), required=True)
    p.set_defaults(run=_cmd_approx)

    p = sub.add_parser("mutable", help="is an arc flippable in a triangulation")
    p.add_argument("--triangulation", required=True)
    p.add_argument("--arc", required=True)
    p.set_defaults(run=_cmd_mutable)

    p = sub.add_parser("flip", help="flip an arc, reporting the exchange conflations")
    p.add_argument("--triangulation", required=True)
    p.add_argument("--arc", required=True)
    p.add_argument("--out", default=None, help="write the flipped triangulation JSON here")
    p.set_defaults(run=_cmd_flip)

    p = sub.add_parser("approx-object", help="generators of incoming morphisms into a shifted arc")
    p.add_argument("--triangulation", required=True)
    p.add_argument("--arc", required=True)
    p.set_defaults(run=_cmd_approx_object)

    p = sub.add_parser("render", help="draw arcs or a triangulation as SVG")
    p.add_argument("--triangulation", default=None)
    p.add_argument("--surface", default=None)
    p.add_argument("--arcs", nargs="*", default=None)
    p.add_argument("--highlight", nargs="*", default=[])
    p.add_argument("--radius", type=int, default=6)
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_render)

    p = sub.add_parser("verify-suite", help="run the verification batteries")
    p.add_argument("--level", choices=("desk", "smoke"), default="desk")
    p.set_defaults(run=_cmd_verify_suite)

    return ap


def main(argv: Sequence[str] | None = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        payload, code = args.run(args)
    except (UsageError, ValueError, limits.ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit(payload, args.pretty)
    return code


if __name__ == "__main__":
    sys.exit(main())
