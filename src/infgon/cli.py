"""Command-line front end.

Structured JSON goes to stdout (sorted keys, so repeated runs are byte
identical); ``--pretty`` switches to aligned key/value lines, with strings
bare and every other value a JSON literal.  Exit codes: 0 success, 1
verification failure, 2 usage or parse error or a query over a resource
limit.
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
# prints the payload.  The verb table in ``_build_parser`` is the one place
# that declares a verb's flags, the surface flavour it needs and its help.

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

_FAMILY_NAMES = {"all": None, "collapsing": ArcClass.COLLAPSING, "persistent": ArcClass.PERSISTENT}


class UsageError(Exception):
    pass


def _emit(payload: dict, pretty: bool) -> None:
    if pretty:
        width = max((len(k) for k in payload), default=0)
        for k, v in sorted(payload.items()):
            print(f"{k.ljust(width)}  {v if isinstance(v, str) else json.dumps(v, sort_keys=True)}")
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


def _flavoured(args, surface: Surface) -> Surface:
    """The parsed --surface, refused when the verb applies to the other flavour only."""
    if args.completed is not None and surface.completed != args.completed:
        flavour = "completed" if args.completed else "uncompleted"
        raise UsageError(f"{args.verb} applies to {flavour} surfaces only, got {args.surface!r}")
    return surface


def _arc_pair(args) -> tuple[Arc, Arc]:
    surface = _flavoured(args, parse_surface(args.surface))
    return parse_arc(surface, args.src), parse_arc(surface, args.dst)


def _cmd_hom(args) -> tuple[dict, int]:
    g, d = _arc_pair(args)
    from .homs import hom_dim

    return {"dim": hom_dim(g, d)}, EXIT_OK


def _cmd_ext(args) -> tuple[dict, int]:
    g, d = _arc_pair(args)
    from .homs import ext_case, ext_dim

    return {"dim": ext_dim(g, d), "case": ext_case(g, d).value}, EXIT_OK


def _cmd_ext_oracle(args) -> tuple[dict, int]:
    g, d = _arc_pair(args)
    from .homs import ext_dim_oracle

    return {"dim": ext_dim_oracle(g, d)}, EXIT_OK


def _cmd_cross(args) -> tuple[dict, int]:
    g, d = _arc_pair(args)
    return {"cross": cross_transverse(g, d)}, EXIT_OK


def _cmd_factor(args) -> tuple[dict, int]:
    g, d = _arc_pair(args)
    from .homs import factors_over, hom_dim

    if not hom_dim(g, d):
        raise UsageError(f"factor needs a nonzero morphism from {args.src} to {args.dst}")
    fam = _FAMILY_NAMES[args.family]
    return {"factors": factors_over(g, d, fam), "family": args.family}, EXIT_OK


def _cmd_classify(args) -> tuple[dict, int]:
    surface = _flavoured(args, parse_surface(args.surface))
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
    _flavoured(args, surface)
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
    surface = _flavoured(args, parse_surface(args.surface))
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
    surface = ("--surface", {"required": True})
    pair = (surface, ("--from", {"dest": "src", "required": True, "help": "first arc, e.g. 1:0-2:3"}),
            ("--to", {"dest": "dst", "required": True, "help": "second arc"}))
    triangulation, arc = ("--triangulation", {"required": True}), ("--arc", {"required": True})
    integer = {"type": int, "required": True}
    # name, handler, the flavour --surface must have (True completed, False uncompleted, None either), help, flags
    verbs = (
        ("hom", _cmd_hom, None, "morphism space dimension between two arcs", pair),
        ("ext", _cmd_ext, True, "restricted extension dimension and its case", pair),
        ("ext-oracle", _cmd_ext_oracle, True, "extension dimension recomputed from the factorization oracle",
         pair),
        ("cross", _cmd_cross, None, "transverse crossing of two arcs", pair),
        ("factor", _cmd_factor, False, "does a nonzero map factor through an arc class",
         (*pair, ("--family", {"choices": sorted(_FAMILY_NAMES), "default": "all"}))),
        ("classify", _cmd_classify, False, "squeeze behaviour of an uncompleted arc", (surface, arc)),
        ("validate", _cmd_validate, None, "check a triangulation file for crossings", (triangulation,)),
        ("window-ct", _cmd_window_ct, True, "compare maximal non-crossing sets with weak cluster-tilting sets",
         (surface, ("--bound", integer), ("--no-accumulation", {"action": "store_true"}))),
        ("leapfrog", _cmd_leapfrog, None, "detect an infinite leapfrog in a triangulation", (triangulation,)),
        ("limit", _cmd_limit, True, "limit of a fan family",
         (surface, ("--fixed", {"required": True, "help": "fixed endpoint, e.g. 1:0 or a1"}),
          ("--interval", integer), ("--base", integer), ("--stride", integer),
          ("--lo", {"type": int}), ("--hi", {"type": int}), ("--end", {"type": int, "choices": (1, -1)}))),
        ("frame", _cmd_frame, None, "quadrilateral frame of an arc in a triangulation", (triangulation, arc)),
        ("approx", _cmd_approx, None, "one-sided approximation of an arc",
         (triangulation, arc, ("--side", {"choices": ("left", "right"), "required": True}))),
        ("mutable", _cmd_mutable, None, "is an arc flippable in a triangulation", (triangulation, arc)),
        ("flip", _cmd_flip, None, "flip an arc, reporting the exchange conflations",
         (triangulation, arc, ("--out", {"help": "write the flipped triangulation JSON here"}))),
        ("approx-object", _cmd_approx_object, None, "generators of incoming morphisms into a shifted arc",
         (triangulation, arc)),
        ("render", _cmd_render, None, "draw arcs or a triangulation as SVG",
         (("--triangulation", {}), ("--surface", {}), ("--arcs", {"nargs": "*"}),
          ("--highlight", {"nargs": "*", "default": []}), ("--radius", {"type": int, "default": 6}),
          ("--out", {"required": True}))),
        ("verify-suite", _cmd_verify_suite, None, "run the verification batteries",
         (("--level", {"choices": ("desk", "smoke"), "default": "desk"}),)),
    )
    for name, run, completed, help_line, flags in verbs:
        p = sub.add_parser(name, help=help_line)
        for flag, options in flags:
            p.add_argument(flag, **options)
        p.set_defaults(run=run, completed=completed)
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
