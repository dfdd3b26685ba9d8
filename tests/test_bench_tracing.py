"""The traced benchmark wraps moyalquot functions by name; every name must exist.

bench/tracing.py is loaded by path and its TARGETS are only looked up, never
installed, so a rename or deletion under src/ shows here rather than as a
failing `--trace 1` run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module,qualname", [(m, q) for m, q, _, _ in _targets()])
def test_trace_target_exists(module, qualname):
    owner = importlib.import_module(f"moyalquot.{module}")
    if "." in qualname:
        cls, method = qualname.split(".")
        assert method in vars(getattr(owner, cls))
    else:
        assert callable(getattr(owner, qualname))
