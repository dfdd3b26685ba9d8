"""Each module of the package imports on its own, in a fresh interpreter.

The package `__init__` imports every module in one fixed order, which can
hide an import cycle: a module that is only ever imported after its partner
never meets the partner half-initialized.  Here the package is registered
without running its `__init__`, so each module is the first one loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
# `__main__` runs the CLI when imported, so it is left out
MODULES = sorted(p.stem for p in (SRC / "moyalquot").glob("*.py") if not p.stem.startswith("__"))

ALONE = """
import importlib, importlib.util, sys, types
spec = importlib.util.find_spec("moyalquot")
package = types.ModuleType("moyalquot")
package.__path__ = list(spec.submodule_search_locations)
sys.modules["moyalquot"] = package
importlib.import_module("moyalquot." + sys.argv[1])
"""


def _import_alone(module: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", ALONE, module], env=env,
                          capture_output=True, text=True, timeout=60)


def test_every_module_is_listed():
    assert {"moyal", "geometry", "quot", "cli"} <= set(MODULES) and len(MODULES) >= 13


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_on_its_own(module):
    result = _import_alone(module)
    assert result.returncode == 0, result.stderr
