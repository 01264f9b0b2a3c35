"""Each module loads exactly its layer closure and nothing above it.

The engine's layers (L0 boundary to L5 front ends) import downwards only.
Every module is imported in a fresh interpreter, and the ``infgon.*``
modules that import loads must equal the set below, so a top-level
import of a higher layer (for example the verification batteries into the
command line) fails here.  Every other module it loads must come from the
standard library: the runtime has no third-party dependency.

The command line imports a layer only in the verbs that query it, so each
verb is also run once in a fresh interpreter and must load exactly its own
closure.
"""

import argparse
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import infgon

SRC = Path(__file__).resolve().parents[1] / "src"

ENGINE = {"limits", "surface", "affine", "arcs", "homs", "triangulation", "mutation", "render", "acceptance", "cli"}
TRIANGULATION = {"triangulation", "limits", "affine", "arcs", "surface"}
LOADS = {
    "limits": {"limits"},
    "surface": {"surface"},
    "affine": {"affine"},
    "arcs": {"arcs", "surface"},
    "homs": {"homs", "arcs", "surface"},
    "triangulation": TRIANGULATION,
    "mutation": TRIANGULATION | {"mutation", "homs"},
    "render": TRIANGULATION | {"render"},
    "acceptance": ENGINE - {"cli", "render"},
    "cli": {"cli", "limits", "surface", "arcs"},
}
# verb -> what one call of it loads besides LOADS["cli"]: the closures of the layers it queries
VERB_LOADS = {
    "cross": set(),
    "classify": set(),
    "hom": LOADS["homs"],
    "ext": LOADS["homs"],
    "ext-oracle": LOADS["homs"],
    "factor": LOADS["homs"],
    "limit": TRIANGULATION,
    "validate": TRIANGULATION,
    "leapfrog": TRIANGULATION,
    "window-ct": TRIANGULATION | LOADS["homs"],
    "frame": LOADS["mutation"],
    "approx": LOADS["mutation"],
    "mutable": LOADS["mutation"],
    "flip": LOADS["mutation"],
    "approx-object": LOADS["mutation"],
    "render": LOADS["render"],
    "verify-suite": LOADS["acceptance"],
}
FOUNTAIN = "fountain(completed:1,1:0)"
VERB_ARGS = {
    "cross": ["--surface", "completed:2", "--from", "1:0-a1", "--to", "1:2-2:0"],
    "classify": ["--surface", "uncompleted:4", "--arc", "1:0-3:2"],
    "hom": ["--surface", "uncompleted:1", "--from", "1:0-1:5", "--to", "1:2-1:7"],
    "ext": ["--surface", "completed:2", "--from", "1:0-2:0", "--to", "1:1-2:1"],
    "ext-oracle": ["--surface", "completed:2", "--from", "a1-a2", "--to", "a1-a2"],
    "factor": ["--surface", "uncompleted:4", "--from", "1:0-3:0", "--to", "1:2-3:2", "--family", "collapsing"],
    "limit": ["--surface", "completed:1", "--fixed", "1:0", "--interval", "1", "--base", "2", "--stride", "1", "--lo", "0"],
    "validate": ["--triangulation", FOUNTAIN],
    "leapfrog": ["--triangulation", "zigzag(completed:1)"],
    "window-ct": ["--surface", "completed:1", "--bound", "1"],
    "frame": ["--triangulation", FOUNTAIN, "--arc", "1:0-1:5"],
    "approx": ["--triangulation", FOUNTAIN, "--arc", "1:0-1:5", "--side", "left"],
    "mutable": ["--triangulation", FOUNTAIN, "--arc", "1:0-1:5"],
    "flip": ["--triangulation", FOUNTAIN, "--arc", "1:0-1:5"],
    "approx-object": ["--triangulation", FOUNTAIN, "--arc", "1:2-1:7"],
    "render": ["--triangulation", FOUNTAIN, "--radius", "3"],
    "verify-suite": ["--level", "smoke"],
}


def _loaded_by(statement: str, *args: str) -> tuple[int, set[str]]:
    """The exit code ``rc`` of ``statement`` run in a fresh interpreter with
    ``args`` as ``sys.argv[1:]``, and the ``infgon.*`` modules it loads,
    after checking that the others are in the standard library.  The
    interpreter runs without ``site`` (``-S``), so no installed package is
    loaded before the statement or can be found by it."""
    code = (f"import importlib, sys; before = set(sys.modules); rc = 0; {statement}; "
            "print(*sorted(set(sys.modules) - before)); sys.exit(rc)")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-S", "-c", code, *args], capture_output=True, text=True, env=env, timeout=60)
    assert proc.stdout.endswith("\n"), proc.stderr
    loaded = proc.stdout.splitlines()[-1].split()
    assert {m.partition(".")[0] for m in loaded} - sys.stdlib_module_names <= {"infgon"}, loaded
    return proc.returncode, {m[len("infgon."):] for m in loaded if m.startswith("infgon.")}


def _loaded_after_import(name: str) -> set[str]:
    """The ``infgon.*`` modules that importing ``name`` loads."""
    rc, loaded = _loaded_by("importlib.import_module(sys.argv[1])", name)
    assert rc == 0
    return loaded


def _loaded_by_cli(*argv: str) -> tuple[int, set[str]]:
    """The exit code of one ``cli.main`` call and the ``infgon.*`` modules it loads."""
    return _loaded_by("from infgon.cli import main; rc = main(sys.argv[1:])", *argv)


def test_every_module_has_a_layer():
    assert {info.name for info in pkgutil.iter_modules(infgon.__path__)} == ENGINE == set(LOADS)


def test_the_package_loads_no_module():
    assert _loaded_after_import("infgon") == set()


@pytest.mark.parametrize("module", sorted(LOADS))
def test_module_loads_its_layer_closure(module):
    assert _loaded_after_import(f"infgon.{module}") == LOADS[module]


def test_every_query_verb_has_a_closure():
    from infgon.cli import _build_parser

    verbs = next(a.choices for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(verbs) == set(VERB_LOADS) == set(VERB_ARGS)


@pytest.mark.parametrize("verb", sorted(VERB_LOADS))
def test_verb_loads_its_layer_closure(verb, tmp_path):
    argv = [verb, *VERB_ARGS[verb]]
    if verb == "render":
        argv += ["--out", str(tmp_path / "t.svg")]
    assert _loaded_by_cli(*argv) == (0, LOADS["cli"] | VERB_LOADS[verb])


@pytest.mark.parametrize("argv, loaded", [
    (["ext", "--surface", "completed:x", "--from", "1:0-1:3", "--to", "1:1-1:4"], set()),
    (["frame", "--triangulation", FOUNTAIN, "--arc", "1:0-zz"], TRIANGULATION),
    (["render", "--out", "never-written.svg"], set()),
])
def test_a_refused_token_loads_no_query_layer(argv, loaded):
    """Only the layers that parse the refused token are loaded."""
    assert _loaded_by_cli(*argv) == (2, LOADS["cli"] | loaded)
