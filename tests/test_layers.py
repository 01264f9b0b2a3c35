"""Each module loads exactly its layer closure and nothing above it.

The engine's layers (L0 boundary to L5 front ends) import downwards only.
Every module is imported in a fresh interpreter, and the ``infgon.*``
modules that import loads must equal the set below, so a top-level
import of a higher layer (for example the verification batteries into the
command line) fails here.  Every other module it loads must come from the
standard library: the runtime has no third-party dependency.
"""

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
    "cli": ENGINE - {"acceptance"},
}


def _loaded_after_import(name: str) -> set[str]:
    """The ``infgon.*`` modules that importing ``name`` loads in a fresh
    interpreter, after checking that the others are in the standard library.
    The interpreter runs without ``site`` (``-S``), so no installed package
    is loaded before the import or can be found by it."""
    code = ("import importlib, sys; before = set(sys.modules); importlib.import_module(sys.argv[1]); "
            "print(*sorted(set(sys.modules) - before))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-S", "-c", code, name], capture_output=True, text=True, env=env, timeout=60,
                          check=True)
    loaded = proc.stdout.split()
    assert {m.partition(".")[0] for m in loaded} - sys.stdlib_module_names <= {"infgon"}, loaded
    return {m[len("infgon."):] for m in loaded if m.startswith("infgon.")}


def test_every_module_has_a_layer():
    assert {info.name for info in pkgutil.iter_modules(infgon.__path__)} == ENGINE == set(LOADS)


def test_the_package_loads_no_module():
    assert _loaded_after_import("infgon") == set()


@pytest.mark.parametrize("module", sorted(LOADS))
def test_module_loads_its_layer_closure(module):
    assert _loaded_after_import(f"infgon.{module}") == LOADS[module]
