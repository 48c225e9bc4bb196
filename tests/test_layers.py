"""The benchmark's per-layer mode (``perfbench/run.py --trace 1``) on one
query: after a first untraced ``cli.run``, ``layers.Tracer.install`` finds
every layer module in ``sys.modules``, the traced query counts its model
build, and ``uninstall`` puts every binding back.  ``perfbench/layers.py``
is loaded by path and left unchanged."""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

from cartan_invariants import cli

_spec = importlib.util.spec_from_file_location(
    "perfbench_layers", Path(__file__).resolve().parents[1] / "perfbench" / "layers.py")
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)

QUERY = ["chern", "projective", "--n", "2", "--rep", "tangent", "--max", "2"]


def _run():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(list(QUERY))
    return code, out.getvalue()


def _bindings():
    namespaces = {name: vars(mod) for name, mod in sys.modules.items()
                  if name == "cartan_invariants" or name.startswith("cartan_invariants.")}
    namespaces["FAMILIES"] = layers.models.FAMILIES
    return {name: dict(ns) for name, ns in namespaces.items()}


def test_traced_query_counts_its_model_build_and_uninstall_restores():
    plain = _run()
    assert plain[0] == 0
    before = _bindings()
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert _run() == plain
    finally:
        tracer.uninstall()
    assert tracer.counts["models.calls"] >= 1
    after = _bindings()
    assert after.keys() == before.keys()
    for name, ns in before.items():
        assert after[name].keys() == ns.keys(), name
        assert all(after[name][key] is value for key, value in ns.items()), name
