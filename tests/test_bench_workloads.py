"""Every benchmark workload still builds and runs on the current program.

bench/workloads.py is loaded by path, each workload's round is built at
seed 1, and the first operation of the round runs with its check, so a
deletion under src/ that the benchmark relies on shows here rather than as a
failed benchmark run.  Every moyalquot name that a bench/*.py file imports or
reads off `moyal`, `quot` or `cli` is also looked up, from the source text
alone, so that names used only off the first operation's path are covered.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "bench" / "workloads.py"


def _workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the file executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["cell-star", "flat-rational", "cli-chart"])
def test_workload_round_builds_and_first_op_checks(name, monkeypatch):
    # the workloads read the atlases and goldens by paths relative to the root
    monkeypatch.chdir(ROOT)
    module = _workloads(monkeypatch)
    round_ = module.WORKLOADS[name](1)
    assert round_.ops
    op = round_.ops[0]
    kept = {}
    out = op.run(kept)
    assert op.check(out, kept) is None


def _bench_references():
    """(module, name) for every `from moyalquot... import name` in bench/*.py
    and every attribute read off a name or attribute called moyal, quot or cli."""
    refs = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            module = getattr(node, "module", None) or ""
            if isinstance(node, ast.ImportFrom) and module.split(".")[0] == "moyalquot":
                refs.update((module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute):
                owner = getattr(node.value, "id", None) or getattr(node.value, "attr", None)
                if owner in ("moyal", "quot", "cli"):
                    refs.add((f"moyalquot.{owner}", node.attr))
    return sorted(refs)


@pytest.mark.parametrize("module,name", _bench_references())
def test_benchmark_reference_exists(module, name):
    owner = importlib.import_module(module)
    assert hasattr(owner, name) or importlib.util.find_spec(f"{module}.{name}") is not None
