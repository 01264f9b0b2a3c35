import contextlib
import hashlib
import io
import json
import math
import re
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infgon import affine, limits, triangulation
from infgon.arcs import arc_key, format_arc, parse_arc
from infgon.cli import main
from infgon.homs import is_weak_ct
from infgon.limits import GENERATOR_LIMIT, POINT_LIMIT, STRIDE_LIMIT
from infgon.surface import Surface, format_point
from infgon.triangulation import Window, window_arcs, window_brute_force


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out.splitlines()[-1])


def test_ext_verb(capsys):
    """ext prints the restricted dimension and the case, under each case's name."""
    for surface, src, dst, expected in (
        ("completed:2", "1:0-2:0", "1:1-2:1", '{"case": "TransverseCross", "dim": 1}'),
        ("completed:1", "1:3-a1", "1:0-a1", '{"case": "ClockwiseAtAccumulation", "dim": 0}'),
        ("completed:2", "a1-a2", "a1-a2", '{"case": "DoubleAccumulationSelf", "dim": 0}'),
        ("completed:1", "1:0-a1", "1:3-a1", '{"case": "NoExt", "dim": 0}'),
    ):
        code, out = run(capsys, "ext", "--surface", surface, "--from", src, "--to", dst)
        assert (code, out) == (0, expected), (src, dst)


def test_mutable_verb_fountain(capsys):
    code, payload = run_json(
        capsys, "mutable", "--triangulation", "fountain(completed:1,1:0)", "--arc", "1:0-a1"
    )
    assert code == 0
    assert payload == {"mutable": False, "reason": "NoExtremum"}
    code, payload = run_json(
        capsys, "mutable", "--triangulation", "fountain(completed:1,1:0)", "--arc", "1:0-1:5"
    )
    assert payload == {"mutable": True}


def test_hom_cross_factor_classify(capsys):
    code, payload = run_json(capsys, "hom", "--surface", "uncompleted:1", "--from", "1:0-1:5", "--to", "1:2-1:7")
    assert (code, payload) == (0, {"dim": 1})
    code, payload = run_json(capsys, "cross", "--surface", "completed:2", "--from", "1:0-a1", "--to", "1:2-2:0")
    assert payload == {"cross": True}
    code, payload = run_json(
        capsys, "factor", "--surface", "uncompleted:4", "--from", "1:0-3:0", "--to", "1:2-3:2",
        "--family", "collapsing",
    )
    assert payload == {"factors": False, "family": "collapsing"}
    code, payload = run_json(capsys, "classify", "--surface", "uncompleted:4", "--arc", "1:0-3:2")
    assert payload == {"class": "persistent"}


def test_factor_needs_a_nonzero_morphism(capsys):
    code = main(["factor", "--surface", "uncompleted:2", "--from", "1:0-2:0", "--to", "1:1-2:1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: factor needs a nonzero morphism from 1:0-2:0 to 1:1-2:1\n"


def test_ext_oracle_verb(capsys):
    code, payload = run_json(capsys, "ext-oracle", "--surface", "completed:2", "--from", "a1-a2", "--to", "a1-a2")
    assert payload == {"dim": 0}


def test_validate_and_exit_codes(tmp_path, capsys):
    doc = {
        "surface": "completed:1",
        "generators": [{"single": "1:0-1:2"}, {"single": "1:1-1:3"}],
    }
    path = tmp_path / "crossing.json"
    path.write_text(json.dumps(doc))
    code, payload = run_json(capsys, "validate", "--triangulation", str(path))
    assert code == 1
    assert payload["ok"] is False and len(payload["witness"]) == 2

    ok_doc = {"surface": "completed:1", "generators": [{"single": "1:0-1:2"}]}
    path2 = tmp_path / "fine.json"
    path2.write_text(json.dumps(ok_doc))
    code, payload = run_json(capsys, "validate", "--triangulation", str(path2))
    assert (code, payload["ok"]) == (0, True)

    # bad input exits 2 with a message, never 1 with a traceback: a file whose
    # certificate covers crossing arcs, and files that are no triangulation
    claimed = tmp_path / "crossing_maximal.json"
    claimed.write_text(json.dumps({**doc, "certificate": "maximal"}))
    no_surface = tmp_path / "no_surface.json"
    no_surface.write_text(json.dumps({"generators": []}))
    a_list = tmp_path / "list.json"
    a_list.write_text("[]")
    truncated = tmp_path / "truncated.json"
    truncated.write_text(json.dumps(doc)[:42])
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b"\xff" + json.dumps(doc).encode())
    for bad, verb, named in (
        (claimed, "validate", "arcs cross: 1:0-1:2 and 1:1-1:3"),
        (claimed, "approx-object", "arcs cross: 1:0-1:2 and 1:1-1:3"),
        (no_surface, "validate", "missing field 'surface'"),
        (a_list, "validate", str(a_list)),
        (tmp_path, "validate", str(tmp_path)),
        (truncated, "validate", f"triangulation {str(truncated)!r}: not a JSON document (Expecting "),
        (not_utf8, "validate", f"triangulation {str(not_utf8)!r}: not UTF-8 text ('utf-8' codec can't decode byte 0xff"),
    ):
        extra = ["--arc", "1:-2-1:2"] if verb == "approx-object" else []
        code = main([verb, "--triangulation", str(bad), *extra])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", bad
        assert captured.err.startswith("error: ") and named in captured.err
        assert "Traceback" not in captured.err


def _family_doc(base, domain) -> dict:
    moving = {"interval": 1, "base": base, "stride": 1}
    return {"surface": "completed:1", "generators": [{"family": {"e0": "a1", "e1": moving, "domain": domain}}]}


def test_json_numbers_and_nesting_are_checked(tmp_path, capsys):
    """Only JSON integers are read as integers, and deep nesting is bad input."""
    cases = (
        ("[" * 200_000, "nested too deeply"),
        (json.dumps(_family_doc(0, [0, float("inf")])), "domain bound must be a JSON int, got inf"),
        (json.dumps(_family_doc(2.7, [0, None])), "moving endpoint base must be a JSON int, got 2.7"),
        (json.dumps(_family_doc(True, [0, None])), "moving endpoint base must be a JSON int, got True"),
    )
    for i, (text, named) in enumerate(cases):
        path = tmp_path / f"bad{i}.json"
        path.write_text(text)
        code = main(["validate", "--triangulation", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), named
        assert captured.err.startswith("error: ") and named in captured.err
    path = tmp_path / "good.json"
    path.write_text(json.dumps(_family_doc(2, [0, None])))
    assert run_json(capsys, "validate", "--triangulation", str(path)) == (0, {"ok": True})


def test_json_fields_are_checked_by_shape(tmp_path, capsys):
    """Fields of the wrong shape, and one family presenting an arc twice, are
    refused with a message naming them, not read past."""
    single = {"single": "1:0-1:2"}
    twice = {"e0": {"interval": 1, "base": 0, "stride": 2}, "e1": {"interval": 1, "base": 2, "stride": -2}, "domain": [0, 1]}
    # 1:0-1:(t - 3) has ends 1 apart at t = 2 and t = 4; t = 2 has the lower difference
    degenerate = {"e0": "1:0", "e1": {"interval": 1, "base": -3, "stride": 1}, "domain": [0, None]}
    cases = (
        ({"surface": "completed:1", "generators": [single], "certificate": "bogus"}, "certificate must be \"maximal\""),
        ({"surface": "completed:1", "generators": [single], "certificate": {"window": "1:0"}},
         "certificate window must be a JSON list, got '1:0'"),
        ({"surface": "completed:1", "generators": [single], "certificate": {"window": []}},
         "window needs at least one point"),
        (_family_doc(0, [0, None, 3]), "family domain must be [lo, hi], got [0, None, 3]"),
        ({"surface": "completed:1", "generators": [{**single, "family": _family_doc(0, [0, None])["generators"][0]["family"]}]},
         "generator record holds both 'single' and 'family'"),
        ({"surface": "completed:1", "generators": [{"family": twice}]}, "arc 1:0-1:2 appears twice in one family"),
        ({"surface": "completed:1", "generators": [{"family": [1, 2]}]}, "family record must be a JSON dict, got [1, 2]"),
        ({"surface": "completed:1", "generators": [{"family": {**twice, "e1": [1, 0, 1]}}]},
         "family e1 must be a JSON dict, got [1, 0, 1]"),
        ({"surface": "completed:1", "generators": [{"family": {**twice, "e1": 7}}]}, "family e1 must be a JSON dict, got 7"),
        ({"surface": "completed:1", "generators": [{"family": {**twice, "e1": {"interval": 3, "base": 0, "stride": 1}}}]},
         "moving endpoint interval 3 out of range"),
        ({"surface": "completed:1", "generators": [{"family": degenerate}]}, "family degenerates at parameter 2"),
        # a key outside its record's fields is refused at every level, not read past
        ({"surface": "completed:1", "generators": [single, {"single": "1:1-1:3"}], "certifcate": "maximal"},
         "unknown key 'certifcate' in triangulation document (known: surface, generators, certificate)"),
        ({"surface": "completed:1", "generators": [{**single, "note": "x"}]},
         "unknown key 'note' in generator record (known: single, family)"),
        ({"surface": "completed:1", "generators": [{"family": {**degenerate, "domian": [0, 1]}}]},
         "unknown key 'domian' in family record (known: e0, e1, domain)"),
        ({"surface": "completed:1", "generators": [{"family": {**twice, "e0": {"interval": 1, "base": 0, "strde": 2}}}]},
         "unknown key 'strde' in family e0 (known: interval, base, stride)"),
        ({"surface": "completed:1", "generators": [single], "certificate": {"window": ["1:0"], "bound": 3}},
         "unknown key 'bound' in window certificate (known: window)"),
    )
    for i, (doc, named) in enumerate(cases):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(doc))
        code = main(["validate", "--triangulation", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), named
        assert captured.err.startswith("error: ") and named in captured.err, captured.err


_json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.sampled_from(["completed:1", "uncompleted:2", "1:0", "a1", "1:0-1:2", "maximal"]),
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6,
)
_small_ints = st.one_of(st.integers(-3, 3), _json_values)
_strides = st.one_of(_small_ints, st.sampled_from([STRIDE_LIMIT, -STRIDE_LIMIT, STRIDE_LIMIT + 1, -STRIDE_LIMIT - 1, 10**8]))
_endpoints = st.one_of(
    st.sampled_from(["1:0", "1:3", "2:1", "a1", "a2"]),
    st.fixed_dictionaries({"interval": _small_ints, "base": _small_ints, "stride": _strides}),
    _json_values,
)
_families = st.fixed_dictionaries(
    {"e0": _endpoints, "e1": _endpoints, "domain": st.one_of(st.lists(st.one_of(st.none(), _small_ints), max_size=3), _json_values)}
)
_generators = st.one_of(
    st.fixed_dictionaries({"single": st.one_of(st.sampled_from(["1:0-1:2", "1:1-a1", "a1-a2"]), _json_values)}),
    st.fixed_dictionaries({"family": st.one_of(_families, _json_values)}),
    _json_values,
)
_documents = st.one_of(
    _json_values,
    st.fixed_dictionaries(
        {
            "surface": st.one_of(st.sampled_from(["completed:1", "completed:2", "uncompleted:2"]), _json_values),
            "generators": st.one_of(st.lists(_generators, max_size=3), _json_values),
        },
        optional={"certificate": st.one_of(st.just("maximal"), st.fixed_dictionaries({"window": _json_values}), _json_values)},
    ),
)


@settings(max_examples=150, deadline=None)
@given(doc=_documents)
def test_any_json_document_gets_an_exit_code(doc):
    """Every JSON document, Infinity and NaN included, exits 0, 1 or 2 without a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--triangulation", str(path)]) in (0, 1, 2)


def test_builder_specs_are_refused_before_building(capsys, monkeypatch):
    """A fountain over the generator limit and a zigzag on more than one interval build nothing."""

    def refuse(*args, **kw):
        raise AssertionError("built a generator of a refused spec")

    monkeypatch.setattr(triangulation, "Single", refuse)
    monkeypatch.setattr(triangulation, "Family", refuse)
    monkeypatch.setattr(triangulation, "Moving", refuse)
    for spec, named in (
        ("fountain(completed:200000,1:0)", "triangulation has 400001 generators, limit is 200"),
        ("fountain(completed:101,a1)", "triangulation has 201 generators, limit is 200"),
        ("zigzag(completed:2)", "zigzag is maximal only on one interval, not on completed:2"),
        ("zigzag(completed:100000)", "no ladder arc reaches interval 2"),
    ):
        code = main(["leapfrog", "--triangulation", spec])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), spec
        assert named in captured.err


def test_fountain_generator_count_is_known_before_building(monkeypatch):
    # the count read off the spec is the count built, so the limit bites exactly at it
    for n in (1, 2, 3):
        s = Surface(True, n)
        for base, count in ((s.point(1, 0), 2 * n + 1), (s.accumulation(1), 2 * n - 1)):
            assert len(triangulation.build_fountain(s, base).generators) == count
            monkeypatch.setattr(limits, "GENERATOR_LIMIT", count - 1)
            with pytest.raises(limits.ResourceLimitError, match=f"has {count} generators"):
                triangulation.build_fountain(s, base)
            monkeypatch.undo()


def test_flip_roundtrip_through_files(tmp_path, capsys):
    out_path = tmp_path / "flipped.json"
    code, payload = run_json(
        capsys, "flip", "--triangulation", "fountain(completed:1,1:0)",
        "--arc", "1:0-1:5", "--out", str(out_path),
    )
    assert code == 0 and payload["new_arc"] == "1:4-1:6"
    code, payload = run_json(capsys, "mutable", "--triangulation", str(out_path), "--arc", "1:4-1:6")
    assert payload == {"mutable": True}
    code, payload = run_json(capsys, "frame", "--triangulation", str(out_path), "--arc", "1:4-1:6")
    assert payload["u_left"] == "1:5" and payload["v_right"] == "1:5"


def test_flip_without_an_extremum_fails(capsys):
    # at 1:0 the neighbours of 1:0-a1 are the fan arcs 1:0-1:k, with no extremum on either side
    assert run_json(capsys, "flip", "--triangulation", "fountain(completed:1,1:0)", "--arc", "1:0-a1") == (
        1, {"flipped": False, "reason": "NoExtremum"})


def _window_doc(surface, bound, arcs) -> dict:
    points = [format_point(p) for p in Window.symmetric(surface, bound).points]
    generators = [{"single": format_arc(a)} for a in sorted(arcs, key=arc_key)]
    return {"surface": surface.describe(), "generators": generators, "certificate": {"window": points}}


def test_window_certificates_are_checked_on_load(tmp_path, capsys):
    """A file's window certificate must hold: each window arc is in the
    triangulation or crosses one of its arcs.  The first arc that is neither is
    named.  A window is bounded by the placement limit, not by brute force's."""
    c1 = Surface(True, 1)
    full = next(T for T in window_brute_force(Window.symmetric(c1, 2)) if parse_arc(c1, "1:1-a1") in T)
    dropped = full - {parse_arc(c1, "1:2-a1")}
    cases = (
        (_window_doc(c1, 1, ()), "window certificate fails: 1:-1-1:1 is neither in the triangulation nor crossed by it"),
        (_window_doc(c1, 2, dropped), "window certificate fails: 1:2-a1 is neither"),
        (_window_doc(Surface(True, 2), 3, ()), "window certificate fails: 1:-3-1:-1 is neither"),
        (_window_doc(Surface(True, 3), 101, ()), f"window has 612 points, limit is {POINT_LIMIT}"),
    )
    for i, (doc, named) in enumerate(cases):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(doc))
        code = main(["mutable", "--triangulation", str(path), "--arc", "1:1-a1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), named
        assert captured.err.startswith("error: ") and named in captured.err, captured.err
    path = tmp_path / "full.json"
    path.write_text(json.dumps(_window_doc(c1, 2, full)))
    assert run_json(capsys, "mutable", "--triangulation", str(path), "--arc", "1:1-a1") == (0, {"mutable": True})


def test_flip_of_a_window_set_writes_a_file_that_loads_again(tmp_path, capsys):
    c1 = Surface(True, 1)
    path, out_path = tmp_path / "window.json", tmp_path / "flipped.json"
    for T in window_brute_force(Window.symmetric(c1, 2)):
        path.write_text(json.dumps(_window_doc(c1, 2, T)))
        for a in sorted(T, key=arc_key):
            code, payload = run_json(capsys, "mutable", "--triangulation", str(path), "--arc", format_arc(a))
            if payload == {"mutable": True}:
                break
        else:
            continue
        code, payload = run_json(capsys, "flip", "--triangulation", str(path), "--arc", format_arc(a), "--out", str(out_path))
        assert code == 0
        assert json.loads(out_path.read_text())["certificate"] == _window_doc(c1, 2, ())["certificate"]
        reloaded = run_json(capsys, "mutable", "--triangulation", str(out_path), "--arc", payload["new_arc"])
        assert reloaded == (0, {"mutable": True})
        return
    pytest.fail("no window set of completed:1 at bound 2 has a mutable arc")


def test_approx_verb(capsys):
    f2 = "fountain(completed:2,2:1)"
    cases = (
        (f2, "2:1-a2", "right", '{"exists": false, "reason": "NoExtremum", "witness": ["a1", "2:-1-1t", "1:0+1t"]}'),
        (f2, "2:1-a1", "left", '{"exists": false, "reason": "NoExtremum", "witness": ["a2", "2:3+1t", "1:0+1t"]}'),
        ("zigzag(completed:1)", "1:-1-1:1", "right", '{"exists": true, "summands": ["1:-1-1:2"]}'),
        ("zigzag(completed:1)", "1:-1-1:1", "left", '{"exists": true, "summands": []}'),
        ("fountain(completed:1,1:0)", "1:0-1:5", "right", '{"exists": true, "summands": ["1:0-1:6"]}'),
    )
    for subject, arc, side, expected in cases:
        code, out = run(capsys, "approx", "--triangulation", subject, "--arc", arc, "--side", side)
        assert (code, out) == (0, expected)


def test_window_ct_verb(capsys):
    for bound in (1, 2, 3):
        code, payload = run_json(capsys, "window-ct", "--surface", "completed:1", "--bound", str(bound))
        assert code == 0
        assert payload["match"] is True
        assert payload["maximal_non_crossing"] == payload["weak_cluster_tilting"]
        window = Window.symmetric(Surface(True, 1), bound)
        arcs = window_arcs(window)
        sets = window_brute_force(window)
        assert sum(is_weak_ct(arcs, T) for T in sets) == payload["weak_cluster_tilting"]
        # dropping an arc leaves a set that is no longer weak cluster-tilting
        assert not any(is_weak_ct(arcs, T - {next(iter(T))}) for T in sets)
    # windows over the point limit are refused as bad input, not as a failed check
    for surface, points in (("completed:2", 16), ("uncompleted:2", 14)):
        code = main(["window-ct", "--surface", surface, "--bound", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"window has {points} points, limit is 12" in captured.err
        assert "Traceback" not in captured.err


def test_window_ct_checks_the_bound_before_building_the_window(capsys, monkeypatch):
    for surface in ("completed:1", "uncompleted:1"):
        code = main(["window-ct", "--surface", surface, "--bound", "-1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: window bound -1 is negative\n"
    built = []
    monkeypatch.setattr(Window, "symmetric", lambda *args, **kw: built.append(args))
    code = main(["window-ct", "--surface", "completed:1", "--bound", "100000"])
    captured = capsys.readouterr()
    assert (code, captured.out, built) == (2, "", [])
    assert captured.err == "error: window has 200002 points, limit is 12\n"


@pytest.mark.parametrize(
    "argv, token, flavour",
    [
        (["ext", "--surface", "uncompleted:3", "--from", "1:0-1:4", "--to", "1:2-2:1"], "uncompleted:3", "completed"),
        (["ext-oracle", "--surface", "uncompleted:2", "--from", "1:0-1:4", "--to", "1:2-2:1"], "uncompleted:2", "completed"),
        (["limit", "--surface", "uncompleted:2", "--fixed", "1:0", "--interval", "2", "--base", "0", "--stride", "1"], "uncompleted:2", "completed"),
        (["window-ct", "--surface", "uncompleted:3", "--bound", "1"], "uncompleted:3", "completed"),
        (["factor", "--surface", "completed:2", "--from", "1:0-1:4", "--to", "1:2-2:1"], "completed:2", "uncompleted"),
        (["classify", "--surface", " completed:2", "--arc", "1:0-1:4"], " completed:2", "uncompleted"),
    ],
)
def test_wrong_surface_flavour_names_the_surface(capsys, monkeypatch, argv, token, flavour):
    built = []
    monkeypatch.setattr(Window, "symmetric", lambda *args, **kw: built.append(args))
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, built) == (2, "", [])
    assert captured.err == f"error: {argv[0]} applies to {flavour} surfaces only, got {token!r}\n"


def test_generator_limit(tmp_path, capsys):
    # fountain(completed:N, 1:0) has 2N + 1 generators
    at_limit = (GENERATOR_LIMIT - 1) // 2
    over = at_limit + 1
    code, payload = run_json(capsys, "leapfrog", "--triangulation", f"fountain(completed:{at_limit},1:0)")
    assert (code, payload) == (0, {"leapfrog": False})
    doc = {"surface": "completed:1", "generators": [{"single": f"1:0-1:{i}"} for i in range(2, GENERATOR_LIMIT + 3)]}
    path = tmp_path / "many.json"
    path.write_text(json.dumps(doc))
    for token, count in ((f"fountain(completed:{over},1:0)", 2 * over + 1), (str(path), GENERATOR_LIMIT + 1)):
        code = main(["leapfrog", "--triangulation", token])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: triangulation has {count} generators, limit is {GENERATOR_LIMIT}\n"


def test_generator_list_is_checked_before_any_entry_is_parsed(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("parsed a generator entry")

    monkeypatch.setattr(triangulation, "parse_arc", refuse)
    over = {"surface": "completed:1", "generators": [{"single": "1:0-1:2"}] * (GENERATOR_LIMIT + 1)}
    cases = (
        (over, f"error: triangulation has {GENERATOR_LIMIT + 1} generators, limit is {GENERATOR_LIMIT}\n"),
        ({"surface": "completed:1", "generators": {"single": "1:0-1:2"}},
         "error: generators must be a JSON list, got {'single': '1:0-1:2'}\n"),
        ({"surface": "completed:1", "generators": ""}, "error: generators must be a JSON list, got ''\n"),
    )
    path = tmp_path / "doc.json"
    for doc, err in cases:
        path.write_text(json.dumps(doc))
        code = main(["validate", "--triangulation", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", err)


def _fan_pair(stride) -> dict:
    # two fans from a2 onto interval 1, on the two residues 0 and 1
    fans = [{"family": {"e0": "a2", "e1": {"interval": 1, "base": base, "stride": stride}, "domain": [None, None]}}
            for base in (0, 1)]
    return {"surface": "completed:2", "generators": fans}


def test_stride_limit(tmp_path, capsys, monkeypatch):
    """A family stride over the limit is refused before any solver call; a
    file at the limit loads."""
    path = tmp_path / "fans.json"
    for stride in (STRIDE_LIMIT, -STRIDE_LIMIT):
        path.write_text(json.dumps(_fan_pair(stride)))
        assert run_json(capsys, "validate", "--triangulation", str(path)) == (0, {"ok": True})

    def refuse(*args):
        raise AssertionError("called the solver")

    monkeypatch.setattr(affine, "solve_2var", refuse)
    for stride in (100_000_000, STRIDE_LIMIT + 1, -STRIDE_LIMIT - 1):
        path.write_text(json.dumps(_fan_pair(stride)))
        start = time.perf_counter()
        code = main(["validate", "--triangulation", str(path)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), stride
        assert captured.err == f"error: family stride {stride} exceeds the limit {STRIDE_LIMIT}\n"
        assert elapsed < 1.0


def test_leapfrog_and_approx_object(capsys):
    code, payload = run_json(capsys, "leapfrog", "--triangulation", "zigzag(completed:1)")
    assert payload["leapfrog"] is True
    code, payload = run_json(capsys, "leapfrog", "--triangulation", "fountain(completed:1,1:0)")
    assert payload == {"leapfrog": False}
    code, payload = run_json(
        capsys, "approx-object", "--triangulation", "zigzag(completed:1)", "--arc", "1:0-a1"
    )
    assert payload["finite"] is False
    assert run_json(capsys, "approx-object", "--triangulation", "fountain(completed:1,1:0)", "--arc", "1:-3-1:2") == (
        0, {"finite": True, "generators": ["1:0-1:3"]})


def test_approx_object_lists_only_runs_without_an_apex(tmp_path, capsys):
    """A fan's support run is decided by its ends at any length; a run with
    no common endpoint is listed, up to a stated limit; an uncompleted
    surface is refused by name."""
    assert run_json(capsys, "approx-object", "--triangulation", "fountain(completed:1,1:0)", "--arc", "1:1-1:5003") == (
        0, {"finite": True, "generators": ["1:0-1:2"]})
    path = tmp_path / "uncompleted.json"
    path.write_text(json.dumps({"surface": "uncompleted:2", "generators": [{"single": "1:0-2:0"}], "certificate": "maximal"}))
    for token, arc, message in (
        ("zigzag(completed:1)", "1:1-1:6000", "support run has 5998 arcs, limit is 5000"),
        (str(path), "1:1-2:1", "module generators need a completed surface, got 'uncompleted:2'"),
    ):
        code = main(["approx-object", "--triangulation", token, "--arc", arc])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n"), token


def test_limit_verb(capsys):
    code, payload = run_json(
        capsys, "limit", "--surface", "completed:2", "--fixed", "1:0",
        "--interval", "1", "--base", "2", "--stride", "1", "--lo", "0",
    )
    assert payload == {"arc": "1:0-a1", "kind": "arc"}
    assert run_json(
        capsys, "limit", "--surface", "completed:1", "--fixed", "a1",
        "--interval", "1", "--base", "0", "--stride", "1", "--lo", "0",
    ) == (0, {"kind": "accumulation-point", "point": "a1"})


def test_limit_bounds_are_parsed_as_integers(capsys):
    # argparse refuses a bad bound by its flag, like every other integer flag
    for flag in ("--lo", "--hi"):
        code = main(["limit", "--surface", "completed:1", "--fixed", "a1", "--interval", "1", "--base", "0",
                     "--stride", "1", flag, "x"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert f"argument {flag}: invalid int value: 'x'" in captured.err


def test_render_verb(tmp_path, capsys):
    out = tmp_path / "pic.svg"
    code, payload = run_json(
        capsys, "render", "--triangulation", "fountain(completed:1,1:0)",
        "--radius", "6", "--out", str(out),
    )
    assert code == 0 and payload["arcs"] == 11
    assert out.read_text().startswith("<svg")


def test_render_needs_a_subject(tmp_path, capsys):
    """render draws exactly one subject: a call with none is refused, and so
    is a second one next to --triangulation, by its flags, not ignored."""
    out = tmp_path / "pic.svg"
    fountain = ["--triangulation", "fountain(completed:1,1:0)"]
    both = "render takes --triangulation or --surface with --arcs, not --triangulation with"
    for argv, message in (
        ([], "render needs --triangulation, or --surface with --arcs"),
        ([*fountain, "--surface", "completed:2"], f"{both} --surface"),
        ([*fountain, "--arcs", "1:0-1:2"], f"{both} --arcs"),
        ([*fountain, "--arcs"], f"{both} --arcs"),
        ([*fountain, "--surface", "completed:1", "--arcs", "1:0-1:2"], f"{both} --surface and --arcs"),
    ):
        code = main(["render", *argv, "--out", str(out)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n"), argv
        assert not out.exists()


def test_render_an_arc_list(tmp_path, capsys):
    """An arc list is drawn once per distinct arc inside the window, with no
    truncation tick; more distinct arcs than the generator limit are refused."""
    out = tmp_path / "arcs.svg"
    arcs = ["1:0-1:2", "1:1-2:5", "a1-a2", "1:0-1:2", "2:40-1:0"]
    argv = ["render", "--surface", "completed:2", "--arcs", *arcs, "--highlight", "1:1-2:5", "--radius", "4"]
    assert run_json(capsys, *argv, "--out", str(out)) == (0, {"arcs": 2, "points": 20, "written": str(out)})
    svg = out.read_bytes()
    assert hashlib.sha256(svg).hexdigest() == "48fb56de07ac3b3eefe40d108fc94f166cd9bbca511f3cf204f18aa0ad19d94a"
    assert b'class="trunc"' not in svg and b'class="arc hl"' not in svg
    out.unlink()
    for count in (GENERATOR_LIMIT, GENERATOR_LIMIT + 1):
        many = [f"1:0-1:{i}" for i in range(2, count + 2)]
        code = main(["render", "--surface", "completed:1", "--arcs", *many, "--radius", "2", "--out", str(out)])
        captured = capsys.readouterr()
        if count == GENERATOR_LIMIT:
            assert (code, json.loads(captured.out)["arcs"]) == (0, 1)
            out.unlink()
        else:
            assert (code, captured.out) == (2, "") and not out.exists()
            assert captured.err == f"error: triangulation has {count} generators, limit is {GENERATOR_LIMIT}\n"


def test_render_marks_an_escape_between_uncompleted_intervals(tmp_path, capsys):
    """With no accumulation point to mark a gap, the truncation tick of a
    family escaping up interval 1 sits midway between 1:3 and 2:-3."""
    doc = tmp_path / "fan.json"
    doc.write_text(json.dumps({"surface": "uncompleted:2", "generators": [
        {"family": {"e0": "1:0", "e1": {"interval": 1, "base": 2, "stride": 1}, "domain": [0, None]}}]}))
    out = tmp_path / "pic.svg"
    code, payload = run_json(capsys, "render", "--triangulation", str(doc), "--radius", "3", "--out", str(out))
    assert (code, payload["points"], payload["arcs"]) == (0, 14, 2)
    svg = out.read_text()
    ticks = re.findall(r'class="trunc" d="M [\d.]+ [\d.]+ L ([\d.]+) ([\d.]+)"', svg)
    points = re.findall(r'class="pt" cx="([\d.]+)" cy="([\d.]+)"', svg)
    assert len(ticks) == 1 and len(points) == 14
    tip = tuple(map(float, ticks[0]))
    last_of_1, first_of_2 = (tuple(map(float, p)) for p in points[6:8])  # 1:3 and 2:-3 in window order
    assert math.dist(tip, last_of_1) == pytest.approx(math.dist(tip, first_of_2), abs=0.02)


def test_render_radius_limit(tmp_path, capsys):
    """The point limit alone bounds the radius: 606 points are those of radius
    100 on completed:3 and of radius 302 on completed:1."""
    out = tmp_path / "pic.svg"
    for surface, radius, points in (("completed:3", 10**12, 6 * 10**12 + 6), ("completed:1", 303, 608)):
        code = main(["render", "--triangulation", f"fountain({surface},1:0)", "--out", str(out), "--radius", str(radius)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "") and not out.exists()
        assert captured.err == f"error: render window has {points} points, limit is {POINT_LIMIT}\n"
    for surface, radius in (("completed:3", 100), ("completed:1", 302)):
        argv = ["render", "--triangulation", f"fountain({surface},1:0)", "--out", str(out), "--radius", str(radius)]
        code, payload = run_json(capsys, *argv)
        assert (code, payload["points"]) == (0, POINT_LIMIT), surface


def test_render_point_limit_is_checked_before_building(tmp_path, capsys, monkeypatch):
    assert POINT_LIMIT == Window.symmetric_size(Surface(True, 3), 100) == Window.symmetric_size(Surface(True, 1), 302)
    built = []
    monkeypatch.setattr(Window, "symmetric", lambda *args, **kw: built.append(args))
    out = tmp_path / "pic.svg"
    for argv, points in (
        (["--surface", "completed:20000", "--radius", "2"], 120000),
        (["--triangulation", "fountain(completed:4,1:0)", "--radius", "100"], 808),
    ):
        code = main(["render", *argv, "--out", str(out)])
        captured = capsys.readouterr()
        assert (code, captured.out, built) == (2, "", [])
        assert captured.err == f"error: render window has {points} points, limit is {POINT_LIMIT}\n"
        assert not out.exists()


def test_surfaces_of_any_size(tmp_path, capsys):
    """No query walks the marked intervals, so a surface of 10^30 intervals
    answers like a small one; only the window verbs refuse it, by their point limits."""
    n = 10**30
    completed, uncompleted = f"completed:{n}", f"uncompleted:{n}"
    for argv, payload in (
        (["hom", "--surface", completed, "--from", "1:0-a1", "--to", "1:0-a1"], {"dim": 1}),
        (["hom", "--surface", uncompleted, "--from", f"1:0-{n}:5", "--to", f"2:0-{n}:3"], {"dim": 0}),
        (["ext", "--surface", completed, "--from", f"1:0-{n}:5", "--to", f"a{n}-2:3"],
         {"case": "TransverseCross", "dim": 1}),
        (["ext-oracle", "--surface", completed, "--from", "1:-1-1:1", "--to", "1:0-a1"], {"dim": 1}),
        (["cross", "--surface", uncompleted, "--from", "1:-1-1:1", "--to", "1:0-2:0"], {"cross": True}),
        (["factor", "--surface", uncompleted, "--from", "1:0-3:0", "--to", "1:2-3:2", "--family", "all"],
         {"factors": True, "family": "all"}),
        (["classify", "--surface", uncompleted, "--arc", "1:0-3:2"], {"class": "persistent"}),
        (["limit", "--surface", completed, "--fixed", "1:0", "--interval", str(n), "--base", "0", "--stride", "1",
          "--lo", "0"], {"arc": f"1:0-a{n}", "kind": "arc"}),
    ):
        assert run_json(capsys, *argv) == (0, payload), argv
    out = tmp_path / "pic.svg"
    for argv, message in (
        (["window-ct", "--surface", completed, "--bound", "0"], f"window has {2 * n} points, limit is 12"),
        (["render", "--surface", completed, "--radius", "2", "--out", str(out)],
         f"render window has {6 * n} points, limit is {POINT_LIMIT}"),
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n"), argv
    assert not out.exists()


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "no_such_dir" / "x"
    for argv, path, reason in (
        (["flip", "--triangulation", "fountain(completed:1,1:0)", "--arc", "1:0-1:5"], f"{missing}.json", "No such file or directory"),
        (["render", "--triangulation", "fountain(completed:1,1:0)"], f"{missing}.svg", "No such file or directory"),
        (["render", "--surface", "completed:1"], str(tmp_path), "Is a directory"),
    ):
        code = main([*argv, "--out", path])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), argv
        assert captured.err == f"error: --out {path!r}: cannot write the file ({reason})\n"


def test_usage_errors(capsys):
    assert main(["no-such-verb"]) == 2
    code, _ = run(capsys, "ext", "--surface", "completed:2", "--from", "bogus", "--to", "1:0-2:0")
    assert code == 2
    err = capsys.readouterr()
    # parse errors name the offending token on stderr
    code = main(["ext", "--surface", "completed:2", "--from", "zz-1:0", "--to", "1:0-2:0"])
    captured = capsys.readouterr()
    assert code == 2 and "zz-1:0" in captured.err


def test_pretty_output(capsys):
    code, out = run(capsys, "--pretty", "hom", "--surface", "completed:1", "--from", "1:0-1:2", "--to", "1:0-1:2")
    assert code == 0
    assert "dim" in out and "{" not in out


def test_verify_suite_smoke(capsys):
    code = main(["verify-suite", "--level", "smoke"])
    captured = capsys.readouterr()
    assert code == 0
    # stdout is one JSON document, like every other verb; the lines go to stderr
    assert json.loads(captured.out) == {"failed": 0, "level": "smoke", "passed": 11}
    assert sum(1 for line in captured.err.splitlines() if line.startswith("PASS")) == 11


# valid tokens are listed several times, so most runs get past parsing
_surfaces = st.sampled_from(
    ["completed:1", "completed:2", "completed:3", "uncompleted:1", "uncompleted:2", "uncompleted:4"] * 3
    + ["completed:0", "completed:x", "torus:1", "", "completed:1000", "completed:200001", "completed:" + "9" * 30,
       "uncompleted:" + "9" * 30]
)
_points = st.sampled_from(
    ["1:0", "1:1", "1:2", "1:5", "1:-1", "1:-3", "2:0", "2:1", "3:-1", "a1", "a2", "a3"] * 2
    + ["a4", "0:0", "1:x", "", "1:" + "9" * 25]
)
_arcs = st.one_of(
    st.builds("{}-{}".format, _points, _points),
    st.sampled_from(["1:0-1:5", "1:0-a1", "1:-1-1:1", "1:0-2:0", "a1-a2", "1:0", "-", "1:0--1:2"]),
)
_ints = st.sampled_from([str(i) for i in range(-2, 4)] * 2 + ["x", "", "10" * 20])
_radii = st.sampled_from(["-1", "0", "2", "3", "5", "101", "x"])
_builders = st.one_of(
    st.builds("fountain({},{})".format, _surfaces, _points),
    st.builds("zigzag({})".format, _surfaces),
)
_FILES = ("good.json", "crossing.json", "crossing_maximal.json", "missing.json", ".")
_OUTS = ("out.txt", ".", "no_such_dir/out.txt")


def _verb_argv(files):
    triangulations = st.one_of(_builders, st.sampled_from(files))
    tri_arc = st.tuples(st.just("--triangulation"), triangulations, st.just("--arc"), _arcs)
    pair = st.tuples(st.just("--surface"), _surfaces, st.just("--from"), _arcs, st.just("--to"), _arcs)
    outs = st.sampled_from(_OUTS).map(lambda name: str(Path(files[0]).parent / name))
    verbs = {
        "hom": pair, "ext": pair, "ext-oracle": pair, "cross": pair,
        "factor": st.tuples(pair, st.just("--family"), st.sampled_from(["all", "collapsing", "persistent", "x"])),
        "classify": st.tuples(st.just("--surface"), _surfaces, st.just("--arc"), _arcs),
        "validate": st.tuples(st.just("--triangulation"), triangulations),
        "window-ct": st.tuples(st.just("--surface"), _surfaces, st.just("--bound"), _ints,
                               st.sampled_from([(), ("--no-accumulation",)])),
        "leapfrog": st.tuples(st.just("--triangulation"), triangulations),
        "limit": st.tuples(st.just("--surface"), _surfaces, st.just("--fixed"), _points, st.just("--interval"), _ints,
                           st.just("--base"), _ints, st.just("--stride"), _ints,
                           st.sampled_from([(), ("--lo", "0"), ("--hi", "-1"), ("--lo", "1", "--hi", "x")]),
                           st.sampled_from([(), ("--end", "1"), ("--end", "-1"), ("--end", "2")])),
        "frame": tri_arc, "mutable": tri_arc, "approx-object": tri_arc,
        "approx": st.tuples(tri_arc, st.just("--side"), st.sampled_from(["left", "right", "up"])),
        "flip": st.tuples(tri_arc, st.one_of(st.just(()), st.tuples(st.just("--out"), outs))),
        "render": st.tuples(
            st.one_of(st.tuples(st.just("--triangulation"), triangulations),
                      st.tuples(st.just("--surface"), _surfaces, st.just("--arcs"), st.lists(_arcs, max_size=2))),
            st.just("--radius"), _radii, st.just("--out"), outs,
        ),
    }

    def flatten(parts):
        return [x for p in parts for x in (flatten(p) if isinstance(p, (tuple, list)) else [p])]

    return st.one_of(*(args.map(lambda a, verb=verb: [verb, *flatten(a)]) for verb, args in verbs.items()))


@pytest.fixture(scope="module")
def token_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("tokens")
    crossing = {"surface": "completed:1", "generators": [{"single": "1:0-1:2"}, {"single": "1:1-1:3"}]}
    (root / "good.json").write_text(json.dumps(triangulation.triangulation_to_json(
        triangulation.build_fountain(Surface(True, 1), Surface(True, 1).point(1, 0)))))
    (root / "crossing.json").write_text(json.dumps(crossing))
    (root / "crossing_maximal.json").write_text(json.dumps({**crossing, "certificate": "maximal"}))
    return [str(root / name) for name in _FILES]


_VERIFYING_VERBS = {"validate", "window-ct", "flip"}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_any_cli_tokens_get_an_exit_code(token_files, data):
    """Every verb but verify-suite exits 0, 1 or 2 on any tokens; only the checking verbs exit 1."""
    argv = data.draw(_verb_argv(token_files))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert code != 1 or argv[0] in _VERIFYING_VERBS, argv
    assert code != 2 or out.getvalue() == "", argv
