"""The cli-cold workload: one cold ``python -m infgon.cli`` invocation per operation.

Every expected stdout is worked out in setup through library calls, so the
check compares bytes and exit codes.  Two invocations are known defects of
the command (see KNOWN_DEFECTS): their expected behaviour is what the
documentation promises, and their outcome is reported as a named check of its
own instead of counting as a failed operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import traceback

from infgon import cli, homs, mutation, render
from infgon import triangulation as tri
from infgon.arcs import Arc, classify, cross_transverse
from infgon.surface import Point, Surface

from common import cli_json, fmt_arc, fmt_point, instances

KNOWN_DEFECTS = {
    "crossing-maximal-certificate": "a crossing JSON file claiming \"certificate\": \"maximal\" must be rejected with exit 2",
    "malformed-json-traceback": "a JSON file without a \"surface\" field must exit 2 without a traceback",
}

CASE_NAMES = {
    homs.ExtCase.CROSSING: "TransverseCross",
    homs.ExtCase.CLOCKWISE_AT_ACCUMULATION: "ClockwiseAtAccumulation",
    homs.ExtCase.DOUBLE_ACCUMULATION_SELF: "DoubleAccumulationSelf",
    homs.ExtCase.NONE: "NoExt",
}

USAGE = 2  # expected exit code of a bad-input invocation: empty stdout, no traceback


def child_env(src: str) -> dict:
    """The fixed environment of every child interpreter; identical on every commit."""
    return {
        "PATH": os.defpath,
        "PYTHONPATH": src,
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONHASHSEED": "0",
        "PYTHONNOUSERSITE": "1",
        "LC_ALL": "C.UTF-8",
    }


class _Expect:
    __slots__ = ("code", "stdout", "files", "defect")

    def __init__(self, code: int, stdout: bytes | None, files: dict | None = None, defect: str | None = None):
        self.code, self.stdout, self.files, self.defect = code, stdout, files or {}, defect


class CliCold:
    """A seeded round of invocations covering every query verb, repeated with fresh arguments."""

    name = "cli-cold"

    def __init__(self, seed: int, tiny: bool, workdir: str, src: str) -> None:
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.env = child_env(src)
        self.in_process = False
        self.builds = 0
        os.makedirs(workdir, exist_ok=True)
        self._write_fixtures()
        rounds = 1 if tiny else 8
        self.rounds = [self._round(r) for r in range(rounds + 1)]
        self.warm = self.rounds.pop(0)[:3]
        self.round_len = len(self.rounds[0])
        self.description = {"per_round": len(self.rounds[0]), "rounds": rounds, "env": self.env}

    # -- fixtures and expectations

    def _write(self, name: str, doc) -> str:
        with open(os.path.join(self.workdir, name), "w", encoding="utf-8") as fh:
            fh.write(doc if isinstance(doc, str) else json.dumps(doc))
        return name

    def _write_fixtures(self) -> None:
        good = tri.build_fountain(Surface(True, 2), Point(Surface(True, 2), 2, 1))
        self.good_file = self._write("fountain.json", tri.triangulation_to_json(good))
        crossing = {
            "surface": "completed:1",
            "generators": [{"single": "1:0-1:3"}, {"single": "1:1-1:5"}, {"single": "1:-4-a1"}],
        }
        self.crossing_file = self._write("crossing.json", crossing)
        self.crossing_t = tri.triangulation_from_json(crossing)
        self.crossing_maximal_file = self._write("crossing_maximal.json", dict(crossing, certificate="maximal"))
        self.missing_surface_file = self._write("missing_surface.json", {"generators": [{"single": "1:0-1:3"}]})
        self.bad_syntax_file = self._write("bad_syntax.json", '{"surface": "completed:1", "generators": [')

    def _arc(self, s, spread: int = 6):
        rng = self.rng
        while True:
            pts = []
            for _ in range(2):
                k = rng.randint(1, s.intervals)
                pts.append(Point(s, k, None) if s.completed and rng.random() < 0.25 else Point(s, k, rng.randint(-spread, spread)))
            try:
                return Arc(*pts)
            except ValueError:
                continue

    def _builder(self, mutable: bool = False):
        """An inline builder spec, the triangulation it names and an arc in it (a flippable one if asked).

        Specs cycle through zigzag, then fountains on completed:1..3, so every
        seed runs the same shapes; the seed picks bases and arcs.
        """
        rng = self.rng
        self.builds += 1
        if self.builds % 4 == 0:
            spec, t = "zigzag(completed:1)", tri.canonical_zigzag(Surface(True, 1))
        else:
            n = self.builds % 4
            s = Surface(True, n)
            base = Point(s, rng.randint(1, n), None if rng.random() < 0.3 else rng.randint(-3, 3))
            spec, t = f"fountain(completed:{n},{fmt_point(base)})", tri.build_fountain(s, base)
        members = [a for a in instances(t, 8) if all(p.pos is None or abs(p.pos) <= 6 for p in a.endpoints)]
        if mutable:
            members = [a for a in members if mutation.is_mutable(t, a)]
        return spec, t, rng.choice(members)

    def _round(self, r: int) -> list:
        rng = self.rng
        out = []

        def add(argv, expect):
            out.append(("cli", argv, expect))

        def pair(verb):
            n = rng.randint(1, 3)
            s = Surface(True, n)
            g, d = self._arc(s), self._arc(s)
            return s, g, d, [verb, "--surface", s.describe(), "--from", fmt_arc(g), "--to", fmt_arc(d)]

        s, g, d, argv = pair("ext")
        add(argv, _Expect(0, cli_json({"dim": homs.ext_dim(g, d), "case": CASE_NAMES[homs.ext_case(g, d)]})))
        if rng.random() < 0.5:
            s, g, d, argv = pair("hom")
        else:
            s = Surface(False, rng.randint(1, 4))
            g, d = self._arc(s), self._arc(s)
            argv = ["hom", "--surface", s.describe(), "--from", fmt_arc(g), "--to", fmt_arc(d)]
        add(argv, _Expect(0, cli_json({"dim": homs.hom_dim(g, d)})))
        s, g, d, argv = pair("cross")
        add(argv, _Expect(0, cli_json({"cross": cross_transverse(g, d)})))
        s, g, d, argv = pair("ext-oracle")
        add(argv, _Expect(0, cli_json({"dim": homs.ext_dim_oracle(g, d)})))

        s = Surface(False, 2 * rng.randint(1, 2))
        a = self._arc(s)
        add(["classify", "--surface", s.describe(), "--arc", fmt_arc(a)], _Expect(0, cli_json({"class": classify(a).value})))

        n = rng.randint(1, 3)
        s = Surface(True, n)
        fixed = Point(s, rng.randint(1, n), None if rng.random() < 0.3 else rng.randint(-4, 4))
        mov = tri.Moving(rng.randint(1, n), rng.randint(-4, 4), rng.choice((1, 2, 3, -1, -2, -3)))
        lo = rng.randint(-3, 3)
        fam = tri.Family(fixed, mov, tri.IntRange(lo, None))
        lim = tri.limit_of_family(s, fam)
        payload = {"kind": lim.kind.value}
        if lim.arc is not None:
            payload["arc"] = fmt_arc(lim.arc)
        if lim.point is not None:
            payload["point"] = fmt_point(lim.point)
        add(
            ["limit", "--surface", s.describe(), "--fixed", fmt_point(fixed), "--interval", str(mov.interval),
             "--base", str(mov.base), "--stride", str(mov.stride), "--lo", str(lo)],
            _Expect(0, cli_json(payload)),
        )

        spec, t, a = self._builder()
        add(["frame", "--triangulation", spec, "--arc", fmt_arc(a)], _Expect(0, cli_json(_frame_payload(mutation.quad_frame(t, a)))))
        spec, t, a = self._builder()
        ok, reason, _ = mutation.mutability_report(t, a)
        add(["mutable", "--triangulation", spec, "--arc", fmt_arc(a)], _Expect(0, cli_json(dict({"mutable": ok}, **({"reason": reason} if reason else {})))))
        spec, t, a = self._builder()
        side = rng.choice(("left", "right"))
        res = mutation.approximate(t, a, tri.Side(side))
        add(["approx", "--triangulation", spec, "--arc", fmt_arc(a), "--side", side], _Expect(0, cli_json(_approx_payload(res))))
        spec, t, _ = self._builder()
        g = self._arc(t.surface, 8)
        res = mutation.right_module_generators(t, g)
        if isinstance(res, mutation.NotFinitelyGenerated):
            payload = {"finite": False, "witness": res.description}
        else:
            payload = {"finite": True, "generators": [fmt_arc(x) for x in res]}
        add(["approx-object", "--triangulation", spec, "--arc", fmt_arc(g)], _Expect(0, cli_json(payload)))

        # flip --out, then frame on the written file
        spec, t, a = self._builder(mutable=True)
        res = mutation.flip(t, a)
        out_name = f"flipped_{r}.json"
        doc = tri.triangulation_to_json(res.new_triangulation)
        payload = {
            "flipped": True,
            "new_arc": fmt_arc(res.new_arc),
            "conflations": [
                {"start": fmt_arc(c.start), "middle": [None if m is None else fmt_arc(m) for m in c.middle], "end": fmt_arc(c.end)}
                for c in res.conflations
            ],
            "written": out_name,
        }
        add(["flip", "--triangulation", spec, "--arc", fmt_arc(a), "--out", out_name],
            _Expect(0, cli_json(payload), {out_name: json.dumps(doc, sort_keys=True, indent=1).encode()}))
        reloaded = tri.triangulation_from_json(doc)
        add(["frame", "--triangulation", out_name, "--arc", fmt_arc(res.new_arc)],
            _Expect(0, cli_json(_frame_payload(mutation.quad_frame(reloaded, res.new_arc)))))

        add(["validate", "--triangulation", self.good_file], _Expect(0, cli_json({"ok": True})))
        report = tri.validate_non_crossing(self.crossing_t)
        add(["validate", "--triangulation", self.crossing_file],
            _Expect(1, cli_json({"ok": False, "witness": [fmt_arc(x) for x in report.witness]})))

        spec, t, _ = self._builder()
        w = tri.detect_leapfrog(t)
        payload = {"leapfrog": False} if w is None else {
            "leapfrog": True, "offset": w.offset, "direction": w.direction, "curve_ends": list(w.curve_ends)}
        add(["leapfrog", "--triangulation", spec], _Expect(0, cli_json(payload)))

        bound = 1 + r % 2
        window = tri.Window.symmetric(Surface(True, 1), bound)
        sets = tri.window_brute_force(window)
        # every maximal non-crossing set of a window is weak cluster-tilting (the paper's theorem)
        add(["window-ct", "--surface", "completed:1", "--bound", str(bound)], _Expect(0, cli_json({
            "points": len(window.points), "maximal_non_crossing": len(sets),
            "weak_cluster_tilting": len(sets), "match": True})))

        spec, t, _ = self._builder()
        radius = 3 + r % 3
        svg = render.render_svg(t, render.RenderSpec(radius=radius))
        svg_name = f"render_{r}.svg"
        add(["render", "--triangulation", spec, "--radius", str(radius), "--out", svg_name], _Expect(0, cli_json({
            "written": svg_name,
            "points": svg.count('class="pt"') + svg.count('class="acc"'),
            "arcs": svg.count('class="arc'),
        }), {svg_name: svg.encode()}))

        bad = [
            ["ext", "--surface", "completed:x", "--from", "1:0-1:3", "--to", "1:1-1:4"],
            ["ext", "--surface", "completed:2", "--from", "1:0-1:1", "--to", "1:1-1:4"],
            ["cross", "--surface", "completed:2", "--from", "1:0-3:0", "--to", "1:1-1:4"],
            ["frobnicate", "--surface", "completed:1"],
            ["frame", "--triangulation", "no_such_file.json", "--arc", "1:0-1:3"],
            ["validate", "--triangulation", self.bad_syntax_file],
        ]
        add(bad[r % len(bad)], _Expect(USAGE, b""))

        add(["approx-object", "--triangulation", self.crossing_maximal_file, "--arc", "1:-2-1:2"],
            _Expect(USAGE, b"", defect="crossing-maximal-certificate"))
        add(["validate", "--triangulation", self.missing_surface_file],
            _Expect(USAGE, b"", defect="malformed-json-traceback"))
        # the frame on the flipped file must directly follow the flip that writes it
        frame_on_file = out.pop(next(i for i, op in enumerate(out) if op[1][:3] == ["frame", "--triangulation", out_name]))
        rng.shuffle(out)
        out.insert(next(i for i, op in enumerate(out) if op[1][0] == "flip") + 1, frame_on_file)
        return out

    # -- the stream

    def ops(self):
        while True:
            for rnd in self.rounds:
                yield from rnd

    def known_defect(self, op):
        return op[2].defect

    def run(self, op):
        if self.in_process:
            return self._run_in_process(op[1])
        for name in op[2].files:
            _remove(os.path.join(self.workdir, name))
        proc = subprocess.run(
            [sys.executable, "-m", "infgon.cli", *op[1]],
            cwd=self.workdir,
            env=self.env,
            stdin=subprocess.DEVNULL,
            capture_output=True,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def _run_in_process(self, argv):
        """Replay one invocation through ``cli.main`` (the traced run)."""
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except Exception:  # an uncaught error is what the interpreter would print and exit 1 on
                    traceback.print_exc()
                    code = 1
        finally:
            os.chdir(cwd)
        return code, out.getvalue().encode(), err.getvalue().encode()

    def check(self, op, res):
        expect = op[2]
        code, out, err = res
        if code != expect.code:
            return f"exit {code}, expected {expect.code}"
        if expect.code == USAGE:
            if out or b"Traceback" in err or not err:
                return "bad input must print an error message, no traceback and no stdout"
            return None
        if out != expect.stdout:
            return f"stdout {out[:120]!r} expected {expect.stdout[:120]!r}"
        for name, content in expect.files.items():
            try:
                with open(os.path.join(self.workdir, name), "rb") as fh:
                    if fh.read() != content:
                        return f"{name} differs from the library's output"
            except FileNotFoundError:
                return f"{name} was not written"
        return None


def _remove(path: str) -> None:
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)


def _frame_payload(f) -> dict:
    cell = lambda e: "undefined" if e is mutation.UNDEFINED else fmt_point(e)
    return {
        "u": fmt_point(f.u),
        "v": fmt_point(f.v),
        "u_left": cell(f.u_left),
        "u_right": cell(f.u_right),
        "v_left": cell(f.v_left),
        "v_right": cell(f.v_right),
    }


def _approx_payload(res) -> dict:
    if res.exists:
        return {"exists": True, "summands": [fmt_arc(s) for s in res.summands]}
    scan = res.failed_scan
    witness = [fmt_point(p) for p in scan.singles] + [
        f"{pr.interval}:{pr.base}{'+' if pr.stride > 0 else ''}{pr.stride}t" for pr in scan.progressions
    ]
    return {"exists": False, "reason": "NoExtremum", "witness": witness}
