"""The README's library tour and CLI examples run as written and show what
their comments claim."""

import ast
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from cartan_invariants.cli import COMMANDS

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src"


def _tour():
    """The first ```python block of the README."""
    return re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)


def _run(block):
    """Run ``block`` one top-level statement at a time, as a session would.
    Returns the namespace and, for each expression statement, its source and
    value, in order."""
    ns, shown = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), str(README), "eval"), ns)
            shown.append((ast.get_source_segment(block, node), value))
        else:
            exec(compile(ast.Module([node], []), str(README), "exec"), ns)
    return ns, shown


def test_library_tour_runs_and_shows_its_comments():
    block = _tour()
    ns, shown = _run(block)
    values = dict(shown)
    assert values["ci.validate_model(m).ok"] is True
    assert "# -> [25*c2 - 11*c1^2]" in block
    relations = values["ci.find_relations(m, rep, 2, modulo_exact=True)"]
    assert [r.to_json() for r in relations] == [
        {"monomials": ["c2", "c1^2"], "coefficients": ["25", "-11"]}]
    assert "(4,1,4)" in block and ns["grade"].as_tuple() == (4, 1, 4)
    source, (exact, psi) = shown[-1]
    assert source == "res.exact, res.psi" and exact is True and not psi.is_zero


def _cli_examples():
    """The commands of the README's CLI block, each with the exit code its
    comment gives: N when it says "exits N", else 0."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n.*?```sh\n(.*?)```", text, re.S | re.M).group(1)
    examples = []
    for line in block.replace("\\\n", " ").splitlines():
        command, _, comment = line.partition("#")
        exits = re.search(r"exits (\d+)", comment)
        examples.append((shlex.split(command), int(exits.group(1)) if exits else 0))
    return examples


def test_cli_examples_exit_as_documented(tmp_path):
    """Each example runs, in order and in one directory, as
    ``python -m cartan_invariants``, and writes nothing to stderr."""
    examples = _cli_examples()
    assert {argv[1] for argv, _ in examples} == set(COMMANDS)
    assert {code for _, code in examples} == {0, 1}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for argv, expected in examples:
        assert argv[0] == "cartan-invariants", argv
        out = subprocess.run([sys.executable, "-m", "cartan_invariants", *argv[1:]],
                             cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert (out.returncode, out.stderr) == (expected, ""), (argv, out.stderr)
