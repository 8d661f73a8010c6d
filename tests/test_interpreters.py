"""The same report bytes under every installed interpreter the package admits.

Runs tests/check_bytes.py (the golden CLI matrix, the benchmark pins and the
statistics pin, no pytest needed) in a subprocess under each pyenv-installed python3 whose
version meets pyproject.toml's requires-python. pyenv's shims are not used:
they run only the selected version. With no such interpreter installed, the
test is skipped.
"""

import os
import re
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tests" / "check_bytes.py"


def _least_version() -> tuple[int, int]:
    spec = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    assert spec, "requires-python is not of the form >=X.Y"
    return int(spec[1]), int(spec[2])


def _version(exe: Path) -> tuple[int, ...] | None:
    try:
        out = subprocess.run(
            [str(exe), "-c", "import sys; print(*sys.version_info[:3])"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    return tuple(int(part) for part in out.split())


def _interpreters() -> list:
    """pytest params (version id, path) of the admitted pyenv interpreters."""
    root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
    least = _least_version()
    found = []
    for exe in sorted(root.glob("versions/*/bin/python3")):
        version = _version(exe)
        if version and version[:2] >= least:
            found.append(pytest.param(exe, id=".".join(map(str, version))))
    if not found:
        reason = f"no python3 >= {least[0]}.{least[1]} under {root}/versions"
        found.append(pytest.param(None, marks=pytest.mark.skip(reason=reason), id="none"))
    return found


@pytest.mark.parametrize("exe", _interpreters())
def test_report_bytes_match_the_pins_under(exe):
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONHOME")}
    done = subprocess.run(
        [str(exe), str(SCRIPT)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=50
    )
    assert done.returncode == 0, done.stdout + done.stderr
