"""Replay of the benchmark's golden queries through ``cli.run`` in-process:
each query's exit code and ``--json`` stdout must match ``perfbench/golden.json``
byte for byte.  The queries' argv come from ``perfbench/workloads.py``."""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from cartan_invariants.cli import run

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)
GOLDEN = workloads.load_golden()


def cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(list(argv))
    return code, out.getvalue()


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A directory holding the model files the file queries read."""
    path = tmp_path_factory.mktemp("golden")
    for name, argv in workloads.MODEL_FILES.items():
        assert cli("model", "build", *argv, "-o", str(path / name)) == (0, "")
    return str(path)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_query(name, work):
    query = workloads.Query(name, None, work)
    assert cli(*query.argv) == (GOLDEN[name]["exit"], GOLDEN[name]["stdout"])
