"""The package's import shape: the modules are the library API, and
`import droidtriage` loads none of them."""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import droidtriage

SRC = str(Path(droidtriage.__file__).resolve().parents[1])  # the package under test
MODULES = sorted(info.name for info in pkgutil.iter_modules(droidtriage.__path__))


def _fresh(code: str) -> str:
    """Run `code` in a fresh interpreter that imports the package under test."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_package_import_loads_no_module():
    out = _fresh("import sys, droidtriage; "
                 "print(sorted(m for m in sys.modules if m.startswith('droidtriage.')))")
    assert out.strip() == "[]"


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_alone(name):
    # no module may rely on another having been imported first
    _fresh(f"import droidtriage.{name}")
