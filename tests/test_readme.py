"""The README's library tour runs as written and shows what its comments claim."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


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
