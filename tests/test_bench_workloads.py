"""Every benchmark workload still builds and runs on the current program.

bench/workloads.py is loaded by path, each workload's round is built at
seed 1, and the first operation of the round runs with its check, so a
deletion under src/ that the benchmark relies on shows here rather than as a
failed benchmark run.
"""

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
