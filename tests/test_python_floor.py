"""The oldest Python that pyproject.toml declares parses and runs the sources."""

import ast
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _declared_floor() -> tuple[int, int]:
    m = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    assert m, "pyproject.toml declares no requires-python floor"
    return int(m.group(1)), int(m.group(2))


def _smoke_stdout(python: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [python, "-m", "infgon.cli", "verify-suite", "--level", "smoke"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_sources_run_on_the_declared_floor():
    """Every source file parses with the floor's grammar; where an interpreter
    of the floor version runs from PATH, the smoke suite prints the same
    stdout under it as under the running one."""
    floor = _declared_floor()
    for path in sorted(SRC.rglob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=floor)
    exe = shutil.which("python{}.{}".format(*floor))
    if exe is None or sys.version_info[:2] == floor:
        return
    probe = subprocess.run(
        [exe, "-c", "import sys; print(sys.version_info[:2])"], capture_output=True, text=True, timeout=60
    )
    if probe.returncode != 0 or probe.stdout.strip() != str(floor):
        return  # a name on PATH that does not start that interpreter (an inactive version shim)
    assert _smoke_stdout(exe) == _smoke_stdout(sys.executable)
