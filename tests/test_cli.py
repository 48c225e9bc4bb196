import contextlib
import functools
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time

import pytest

import cartan_invariants as ci
from cartan_invariants.cli import run, structure_report
from cartan_invariants.forms import Form
from cartan_invariants.modelio import (ModelSchemaError, emit_model_json,
                                       parse_model_file, parse_model_json)
from cartan_invariants.models import FAMILIES

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def child_env():
    """The environment of a child interpreter that imports ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def cli(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_golden_projective1_file():
    path = os.path.join(os.path.dirname(__file__), "data", "projective1.json")
    m = parse_model_file(path)
    # the sl(2) table in this realization: [w,z] = -2w, [w,u] = z, [z,u] = -2u
    from fractions import Fraction as F
    assert m.dims == (1, 1, 1)
    assert m.brackets == {(0, 1): {0: F(-2)}, (0, 2): {1: F(1)}, (1, 2): {2: F(-2)}}
    with open(path, "r", encoding="utf-8") as fh:
        assert emit_model_json(m) == fh.read()
    assert emit_model_json(ci.projective(1)) == emit_model_json(m)


def test_round_trip_byte_identical():
    for m in (ci.projective(1), ci.projective(2), ci.g2_flag(), ci.conformal(3)):
        text = emit_model_json(m)
        again = emit_model_json(parse_model_json(text))
        assert text == again


def test_round_trip_preserves_structure(tmp_path):
    m = ci.grassmannian(2, 2)
    path = tmp_path / "gr22.json"
    path.write_text(emit_model_json(m))
    m2 = parse_model_file(str(path))
    assert m2.dims == m.dims and m2.names == m.names and m2.brackets == m.brackets
    assert set(m2.reps) == set(m.reps)
    assert m2.reps["U"].ghost and m2.reps["module"].g_module


def test_schema_error_reports_offending_triple():
    m = ci.projective(1)
    obj = json.loads(emit_model_json(m))
    obj["brackets"][0] = [0, 2, [[99, "1"]]]
    with pytest.raises(ModelSchemaError) as exc:
        parse_model_json(json.dumps(obj))
    assert "99" in str(exc.value)


def test_schema_error_non_rational():
    m = ci.projective(1)
    obj = json.loads(emit_model_json(m))
    obj["brackets"][0][2][0][1] = "0.5"
    with pytest.raises(ModelSchemaError) as exc:
        parse_model_json(json.dumps(obj))
    assert "non-rational" in str(exc.value)


def test_model_build_round_trip_validates(tmp_path):
    path = tmp_path / "g2.json"
    code, out, err = cli("model", "build", "g2", "-o", str(path))
    assert code == 0
    m = parse_model_file(str(path))
    assert ci.validate_model(m).ok
    code, out, err = cli("model", "validate", str(path))
    assert code == 0


def test_model_validate_checks_every_rep(tmp_path):
    """A file whose brackets are sound but whose tangent rep is not a
    representation fails ``model validate`` with exit 1, one line per
    mismatched g0 pair, in the order validate_rep reports them."""
    path = tmp_path / "p2.json"
    assert cli("model", "build", "projective", "--n", "2", "-o", str(path))[0] == 0
    obj = json.loads(path.read_text(encoding="utf-8"))
    obj["reps"]["tangent"]["matrices"][0][0][1] = "5"
    path.write_text(json.dumps(obj), encoding="utf-8")
    m = parse_model_file(str(path))
    assert ci.validate_model(m).ok
    expected = [f["detail"] for f in ci.validate_rep(m, m.reps["tangent"]).failures]
    assert expected[0] == "tangent: commutator mismatch on (z1,z3)"
    code, out, err = cli("model", "validate", str(path))
    assert (code, err) == (1, "")
    assert out.splitlines() == ["FAILED"] + [f"  rep: {d}" for d in expected]
    code, out, err = cli("model", "validate", str(path), "--json")
    assert code == 1
    assert json.loads(out) == {"ok": False,
                               "failures": [{"check": "rep", "detail": d} for d in expected]}


def test_model_validate_reports_each_splitting_fault_once(tmp_path):
    """A w1 component in [z1,z2] and a z1 component in [u1,u2] of projective(2)
    are one ``langlands`` failure each, under ``model validate`` as text and
    as JSON, though the walk over ordered pairs meets each bracket twice; a
    query refuses the file naming the first."""
    path = tmp_path / "p2.json"
    obj = json.loads(emit_model_json(ci.projective(2)))
    names = obj["names"]
    w1, z1, z2, u1, u2 = (names.index(name) for name in ("w1", "z1", "z2", "u1", "u2"))
    [z_bracket] = [b for b in obj["brackets"] if b[:2] == [z1, z2]]
    z_bracket[2].append([w1, "1"])
    obj["brackets"].append([u1, u2, [[z1, "1"]]])
    path.write_text(json.dumps(obj), encoding="utf-8")
    expected = ["[z1,z2] has minus-component 1*w1", "[u1,u2] has zero-component 1*z1"]
    code, out, err = cli("model", "validate", str(path))
    assert (code, err) == (1, "")
    assert [line.strip().split(": ", 1)[1] for line in out.splitlines()
            if line.startswith("  langlands: ")] == expected
    code, out, err = cli("model", "validate", str(path), "--json")
    assert (code, err) == (1, "")
    assert [f["detail"] for f in json.loads(out)["failures"]
            if f["check"] == "langlands"] == expected
    assert cli("chern", str(path), "--rep", "tangent", "--max", "1") == (
        2, "", f"schema error: model fails its langlands check: {expected[0]}\n")


def test_model_without_g0_keeps_rep_dim(tmp_path):
    path = tmp_path / "nog0.json"
    path.write_text(json.dumps({"dims": [1, 0, 1], "names": ["w1", "u1"], "brackets": [],
                                "reps": {"V": {"dim": 2, "matrices": []}}}))
    code, out, err = cli("chern", str(path), "--rep", "V")
    assert (code, out, err) == (0, "c1 = 0\nc2 = 0\n", "")
    again = tmp_path / "again.json"
    code, out, err = cli("model", "build", str(path), "-o", str(again))
    assert code == 0
    m = parse_model_file(str(again))
    assert m.reps["V"].dim == 2
    assert emit_model_json(m) == emit_model_json(parse_model_file(str(path)))


def test_model_build_to_an_unwritable_path_exits_two(tmp_path):
    path = tmp_path / "missing" / "x.json"
    code, out, err = cli("model", "build", "projective", "--n", "2", "-o", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not path.exists()


def _pinned_models():
    with open(os.path.join(os.path.dirname(__file__), "data", "model_json.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def _build_id(entry):
    return "-".join([entry["family"]] + [f"{k}{v}".replace(" ", "")
                                          for k, v in entry["params"].items()])


@pytest.mark.parametrize("entry", _pinned_models(), ids=_build_id)
def test_model_json_pinned(entry):
    """sha256 of ``emit_model_json`` for every family, recorded while rep and
    realization matrices were still dense: the serialized rep matrices must
    not change with their storage."""
    params = {k: tuple(v) if isinstance(v, list) else v for k, v in entry["params"].items()}
    text = emit_model_json(ci.build_model(entry["family"], **params))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == entry["sha256"]


def test_cli_relations_g2_golden():
    code, out, err = cli("relations", "g2", "--rep", "graded-tangent",
                         "--degree", "2", "--modulo-exact", "--json")
    assert code == 0
    assert json.loads(out) == {
        "relations": [{"monomials": ["c2", "c1^2"], "coefficients": ["25", "-11"]}]
    }


def test_cli_chern_matches_library():
    code, out, err = cli("chern", "projective", "--n", "2", "--rep", "tangent",
                         "--max", "2", "--json")
    assert code == 0
    obj = json.loads(out)
    m = ci.projective(2)
    c1, c2 = ci.chern_forms(m, m.reps["tangent"], 2)
    assert obj["forms"]["c1"] == c1.to_json(m)
    assert obj["forms"]["c2"] == c2.to_json(m)


def test_cli_primitive_g2_exits_zero():
    code, out, err = cli("primitive", "g2", "--rep", "graded-tangent",
                         "--target", "5^5*c5-3*c1^5", "--expect-exact", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["grade"] == [4, 1, 4]
    assert obj["primitive"] != "not_exact"


def test_cli_primitive_not_exact_exit_code():
    code, out, err = cli("primitive", "projective", "--n", "1", "--rep", "tangent",
                         "--target", "c1", "--chern-form", "--min-minus", "1",
                         "--expect-exact", "--json")
    assert code == 1
    obj = json.loads(out)
    assert obj["primitive"] == "not_exact"
    assert obj["certificate"]["augmented_rank"] == 1


def test_cli_structure_report_g2():
    code, out, err = cli("report", "g2", "--json")
    assert code == 0
    obj = json.loads(out)
    rows = {r["name"]: r for r in obj["generators"]}
    assert rows["w1"]["quotient_d"] == []
    assert rows["w2"]["quotient_d"] == []
    u3_row = rows["u3"]["quotient_d"]
    assert len(u3_row) == 1 and u3_row[0][0] == ["u1", "u2"]


def test_cli_structure_report_split_no_plus_rows():
    m = ci.split_projective(1, 1)
    report = structure_report(m)
    assert all(r["part"] != "plus" for r in report["generators"])


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_cli_report_differentiates_each_generator_once(monkeypatch, json_flag):
    from cartan_invariants import cli as cli_module
    calls = []
    d = cli_module.ce_differential
    monkeypatch.setattr(cli_module, "ce_differential",
                        lambda *a, **kw: calls.append(a) or d(*a, **kw))
    code, out, err = cli("report", "g2", *json_flag)
    assert code == 0 and out
    assert len(calls) == 14  # dim g2


@pytest.mark.parametrize("argv", [
    ["chern", "projective", "--n", "2", "--rep", "tangent", "--max", "2"],
    ["cs", "projective", "--n", "2", "--rep", "tangent", "--poly", "c2", "--full"],
    ["primitive", "g2", "--rep", "graded-tangent", "--target", "5^5*c5-3*c1^5"],
    ["audit", "FILE", "--rep", "tangent"],
], ids=lambda argv: argv[0])
def test_cli_text_mode_serializes_no_form(monkeypatch, tmp_path, argv):
    """The JSON object, with ``Form.to_json`` of every form, is built only
    under --json.  Every built-in g-module restriction has zero Chern forms,
    so the audit reads projective(1) with its tangent module flagged as one,
    which gives it a primitive to serialize."""
    obj = json.loads(emit_model_json(ci.projective(1)))
    obj["meta"]["flags"]["tangent"] = {"ghost": False, "g_module": True}
    path = tmp_path / "projective1.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    argv = [str(path) if arg == "FILE" else arg for arg in argv]
    calls = []
    to_json = Form.to_json
    monkeypatch.setattr(Form, "to_json", lambda *a: calls.append(a) or to_json(*a))
    assert cli(*argv)[0] == 0
    assert calls == []
    assert cli(*argv, "--json")[0] == 0
    assert calls


def test_cli_report_matches_library():
    code, out, err = cli("report", "projective", "--n", "1", "--json")
    obj = json.loads(out)
    lib = structure_report(ci.projective(1))
    assert obj == json.loads(json.dumps(lib))


def test_cli_conformal_coeffs():
    code, out, err = cli("conformal-coeffs", "--n", "4", "--json")
    assert code == 0
    assert json.loads(out) == {"n": 4, "coefficients": ["4", "7", "6", "3"]}


def test_cli_audit():
    code, out, err = cli("audit", "projective", "--n", "2", "--rep", "module",
                         "--json")
    assert code == 0
    obj = json.loads(out)
    assert [row["k"] for row in obj["degrees"]] == [1, 2, 3]


def test_cli_cs_full():
    code, out, err = cli("cs", "projective", "--n", "2", "--rep", "tangent",
                         "--poly", "ch2", "--full", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["grade"] == [1, 1, 1]
    assert obj["cs_class"] and obj["chern_simons_form"]


def test_cli_cs_full_past_the_model_is_empty():
    """c12 on projective(2) has no term that can be nonzero: each is skipped."""
    start = time.perf_counter()
    code, out, err = cli("cs", "projective", "--n", "2", "--rep", "tangent",
                         "--poly", "c12", "--full", "--json")
    assert time.perf_counter() - start < 2.0
    assert (code, err) == (0, "")
    assert json.loads(out) == {"poly": "c12", "grade": [11, 1, 11], "cs_class": [],
                               "chern_simons_form": []}


def test_cli_usage_errors_exit_two():
    code, out, err = cli("frobnicate")
    assert code == 2
    code, out, err = cli("chern", "projective", "--rep", "tangent")  # missing --n
    assert code == 2
    code, out, err = cli("chern", "no-such-model.json", "--rep", "tangent")
    assert code == 2
    code, out, err = cli("cs", "projective", "--n", "1", "--rep", "tangent",
                         "--poly", "c1 + c2")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["relations", "g2", "--rep", "graded-tangent", "--degree", "9"],
    ["relations", "g2", "--rep", "graded-tangent", "--degree", "0"],
    ["conformal-coeffs", "--n", "0"],
    ["chern", "projective", "--n", "0", "--rep", "tangent"],
    ["chern", "conformal", "--n", "2", "--rep", "tangent"],
    ["primitive", "projective", "--n", "0", "--rep", "tangent", "--target", "c1"],
    ["primitive", "projective", "--n", "1", "--rep", "tangent", "--target", "c1"],
    ["chern", "projective", "--n", "2", "--rep", "tangent", "--max", "-3"],
    ["cs", "projective", "--n", "2", "--rep", "tangent", "--poly", "c1^99999999"],
    ["audit", "projective", "--n", "2", "--rep", "tangent"],
    ["audit", "projective", "--n", "2", "--rep", "module", "--max", "0"],
    ["chern", os.path.dirname(__file__), "--rep", "tangent"],  # a directory
    ["cs", "projective", "--n", "2", "--rep", "tangent", "--poly", "c1-c1"],
    ["primitive", "projective", "--n", "2", "--rep", "tangent", "--target", "c1-c1"],
    ["primitive", "projective", "--n", "2", "--rep", "tangent", "--target", "0"],
    ["chern", "projective", "--n", "2", "--o-weights", "a,b", "--rep", "tangent"],
    ["chern", "projective", "--n", "2", "--o-weights", "1,,2", "--rep", "tangent"],
    ["chern", "projective", "--n", "16", "--o-weights", ",".join(map(str, range(1, 20001))),
     "--rep", "tangent", "--max", "1"],
    ["primitive", "projective", "--n", "2", "--rep", "tangent", "--target", "c2",
     "--min-minus", "-1"],
    ["conformal-coeffs", "--n", "1001"],
    # family flags the model does not take
    ["report", "conformal", "--n", "3", "--o-weights", "2"],
    ["chern", "grassmannian", "--p", "2", "--q", "2", "--n", "5", "--rep", "tangent"],
    ["chern", "projective", "--n", "2", "--p", "3", "--rep", "tangent"],
    ["chern", "g2", "--q", "1", "--rep", "graded-tangent"],
    ["report", os.path.join(os.path.dirname(__file__), "data", "projective1.json"), "--n", "2"],
    # an empty value is not the default
    ["report", "projective", "--n", "2", "--o-weights", ""],
    # nested past the recursion limit
    *(["cs", "projective", "--n", "2", "--rep", "tangent", f"--poly={'(' * k}c2{')' * k}"]
      for k in (260, 10_000)),
    *(["primitive", "projective", "--n", "2", "--rep", "tangent", f"--target={'(' * k}c2{')' * k}"]
      for k in (260, 10_000)),
    # nested integer powers past the coefficient digit cap
    *(["cs", "projective", "--n", "2", "--rep", "tangent", f"--poly={'(' * k}9{'^16)' * k}*c1"]
      for k in (4, 6)),
    *(["primitive", "projective", "--n", "2", "--rep", "tangent",
       f"--target={'(' * k}9{'^16)' * k}*c1"] for k in (4, 6)),
])
def test_cli_bad_input_exits_two_with_one_line(argv):
    start = time.perf_counter()
    code, out, err = cli(*argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_cli_unknown_rep_exits_two():
    code, out, err = cli("chern", "projective", "--n", "1", "--rep", "nope")
    assert code == 2
    assert "nope" in err


def test_cli_deterministic_output():
    first = cli("relations", "projective", "--n", "3", "--rep", "tangent",
                "--degree", "3", "--json")
    second = cli("relations", "projective", "--n", "3", "--rep", "tangent",
                 "--degree", "3", "--json")
    assert first == second


def test_console_entry_point_subprocess():
    out = subprocess.run(
        [sys.executable, "-c",
         "from cartan_invariants.cli import main; main()",
         "conformal-coeffs", "--n", "3", "--json"],
        capture_output=True, text=True)
    assert out.returncode == 0
    assert json.loads(out.stdout) == {"n": 3, "coefficients": ["3", "4", "2"]}


def test_python_dash_m_entry_point():
    out = subprocess.run([sys.executable, "-m", "cartan_invariants", "--help"],
                         capture_output=True, text=True, env=child_env())
    assert out.returncode == 0
    assert out.stderr == ""
    assert "conformal-coeffs" in out.stdout


def _loaded_modules(statement):
    """The modules a fresh interpreter has loaded after ``statement``."""
    out = subprocess.run(
        [sys.executable, "-c", f"{statement}\nimport sys; print('\\n'.join(sys.modules))"],
        capture_output=True, text=True, env=child_env(), timeout=60)
    assert out.returncode == 0, out.stderr
    return set(out.stdout.split())


def test_start_up_imports():
    """Every module a process loads costs it the module's import, and, with
    no bytecode cache, the compile of its source.  The package namespace is
    lazy: importing it loads no package module and no argparse, and a model
    build loads only the three modules it runs.  The CLI leaves out
    dataclasses and inspect, and loads no Chevalley module (that
    construction is the test oracle tests/chevalley_oracle.py), yet still
    loads every module that perfbench/layers.py patches through sys.modules
    once its first query has imported the CLI."""
    start = _loaded_modules("pass")

    def package_modules(statement):
        loaded = _loaded_modules(statement) - start
        return loaded, {name for name in loaded if name.startswith("cartan_invariants.")}

    loaded, modules = package_modules("import cartan_invariants")
    assert "cartan_invariants" in loaded and not modules and "argparse" not in loaded
    _, modules = package_modules("import cartan_invariants as ci; ci.build_model('g2')")
    assert modules == {"cartan_invariants.linalg", "cartan_invariants.model",
                       "cartan_invariants.models"}
    text = json.dumps({"dims": [1, 0, 1], "names": ["w1", "u1"], "brackets": [], "reps": {}})
    _, modules = package_modules(f"import cartan_invariants as ci; ci.parse_model_json({text!r})")
    assert modules == {"cartan_invariants.model", "cartan_invariants.modelio",
                       "cartan_invariants.scalars"}
    cli_path, modules = package_modules("from cartan_invariants.cli import main")
    assert not cli_path & {"dataclasses", "inspect", "cartan_invariants.chevalley"}
    assert {f"cartan_invariants.{name}" for name in (
        "charforms", "forms", "invariants", "linalg", "model", "modelio", "models",
        "relations")} <= modules


def test_wrapped_family_builder_keeps_its_parameters(monkeypatch):
    """A ``functools.wraps`` wrapper, as a tracer installs, takes
    ``*args, **kwargs``; the CLI reads the parameters of the builder it
    wraps."""
    builder = FAMILIES["grassmannian"]

    @functools.wraps(builder)
    def wrapper(*args, **kwargs):
        return builder(*args, **kwargs)

    monkeypatch.setitem(FAMILIES, "grassmannian", wrapper)
    argv = ["chern", "grassmannian", "--p", "2", "--q", "2", "--rep", "tangent", "--max", "1"]
    code, out, err = cli(*argv)
    assert (code, err) == (0, "") and out.startswith("c1 = ")
    code, out, err = cli(*argv, "--n", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("params", [
    ["projective", "--n", "100000"],
    ["grassmannian", "--p", "1", "--q", "100000"],
    ["lagrangian", "--n", "100000"],
    ["conformal", "--n", "100000"],
    ["foliated", "--p", "100000", "--q", "1"],
    ["split", "--p", "1", "--q", "100000"],
])
def test_family_size_cap_exits_two(params):
    """An oversized family is refused before anything is built.  The query
    runs in a child with a timeout and a memory limit, so that a missing cap
    fails this test instead of filling memory."""
    out = subprocess.run(
        [sys.executable, "-m", "cartan_invariants", "chern", *params, "--rep", "tangent",
         "--max", "1"],
        capture_output=True, text=True, env=child_env(), timeout=30,
        preexec_fn=_limit_memory)
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr.startswith(f"error: family {params[0]!r}: "), out.stderr
    assert out.stderr.count("\n") == 1, out.stderr


def _set(path, value):
    """A model-object edit that puts ``value`` at the key path."""
    def edit(obj):
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
    return edit


def _on_projective2(edit):
    """``edit`` applied to projective(2)'s model object, in place of the one
    it is given."""
    def apply(obj):
        obj.clear()
        obj.update(json.loads(emit_model_json(ci.projective(2))))
        edit(obj)
    return apply


def _write_model(tmp_path, edit) -> str:
    """The path of a file that holds ``edit`` applied to projective(1)'s
    model object, or ``edit`` itself when it is bytes."""
    path = tmp_path / "bad.json"
    if isinstance(edit, bytes):
        path.write_bytes(edit)
    else:
        obj = json.loads(emit_model_json(ci.projective(1)))
        edit(obj)
        path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


# Files that parse but fail a check of ``model validate``: [z1,u1] changed
# from -2*u1 to -3*u1, then to w1 - 2*u1, and projective(2) with an entry
# of a tangent matrix changed
INVALID_MODELS = [
    pytest.param(_set(["brackets", 2, 2, 0, 1], "-3"), id="jacobi"),
    pytest.param(_set(["brackets", 2, 2], [[0, "1"], [2, "-2"]]), id="broken-splitting"),
    pytest.param(_on_projective2(_set(["reps", "tangent", "matrices", 0, 0, 1], "5")),
                 id="rep-commutator"),
]


@pytest.mark.parametrize("edit", [
    pytest.param(_set(["brackets", 0, 2, 0, 1], -2), id="int-bracket-coefficient"),
    pytest.param(_set(["reps", "tangent", "matrices", 0, 0, 0], 2), id="int-rep-entry"),
    pytest.param(_set(["reps", "tangent", "matrices", 0, 0, 0], 0), id="int-zero-rep-entry"),
    pytest.param(_set(["reps", "tangent", "matrices", 0, 0, 0], "0/0"), id="zero-over-zero-entry"),
    pytest.param(_set(["reps", "tangent", "matrices", 0, 0, 0], "0.0"), id="decimal-zero-entry"),
    pytest.param(_set(["meta", "pairing"], [[1]]), id="int-pairing-entry"),
    pytest.param(_set(["reps", "tangent"], 5), id="rep-not-object"),
    pytest.param(_set(["brackets"], 5), id="brackets-not-list"),
    pytest.param(_set(["brackets", 0], 5), id="bracket-not-list"),
    pytest.param(_set(["brackets", 0, 2, 0], 7), id="bracket-term-not-pair"),
    pytest.param(lambda obj: obj["brackets"].append([0, 1, [[0, "3"]]]),
                 id="duplicate-bracket"),
    pytest.param(lambda obj: obj["brackets"][0][2].append([0, "3"]),
                 id="duplicate-bracket-component"),
    pytest.param(_set(["reps", "empty"], {"dim": 0, "matrices": [[]]}), id="rep-dim-0"),
    pytest.param(_set(["reps", "tangent", "matrices", 0], [5]), id="matrix-row-not-list"),
    pytest.param(_set(["meta"], []), id="meta-not-object"),
    pytest.param(_set(["meta", "flags", "module"], True), id="flags-not-object"),
    pytest.param(_set(["names", 0], 1), id="name-not-string"),
    pytest.param(_set(["brackets", 0, 2, 0, 1], "1/0"), id="zero-denominator"),
    pytest.param(_set(["dims", 0], True), id="boolean-dim"),
    pytest.param(_set(["brackets", 0, 0], False), id="boolean-bracket-index"),
    pytest.param(_set(["brackets", 0, 2, 0, 0], False), id="boolean-component-index"),
    pytest.param(_set(["reps", "tangent", "dim"], True), id="boolean-rep-dim"),
    pytest.param(_set(["meta", "flags", "trivial"], {"g_module": "false"}), id="string-flag"),
    pytest.param(_set(["meta", "flags", "module", "g_module"], 1), id="integer-flag"),
    pytest.param(b'{"dims": [1, 1, 1], "names": ["w\xff"]}', id="not-utf8"),
    pytest.param(b"[" * 100000 + b"]" * 100000, id="nested-too-deep"),
    *INVALID_MODELS,
])
def test_bad_model_file_exits_two_with_one_line(tmp_path, edit):
    """``edit`` changes a valid model object, or is the file's raw bytes."""
    code, out, err = cli("report", _write_model(tmp_path, edit))
    assert (code, out) == (2, "")
    assert err.startswith("schema error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("edit", INVALID_MODELS)
def test_model_validate_lists_what_a_query_refuses(tmp_path, edit):
    """``model validate`` lists every failure and exits 1; any other command
    on the file stops at the first failure, with exit 2 and one line."""
    path = _write_model(tmp_path, edit)
    code, out, err = cli("model", "validate", path)
    assert (code, err) == (1, "")
    assert out.splitlines()[0] == "FAILED", out
    check, detail = out.splitlines()[1].strip().split(": ", 1)
    for argv in (["chern", path, "--rep", "tangent", "--max", "1"], ["model", "build", path]):
        assert cli(*argv) == (2, "", f"schema error: model fails its {check} check: {detail}\n")


def _pinned(name):
    with open(os.path.join(os.path.dirname(__file__), "data", name), encoding="utf-8") as fh:
        return json.load(fh)


def _pinned_text():
    return _pinned("text_stdout.json")


def _pinned_ids(entries):
    """The command name, with the family appended from its second use on."""
    ids = []
    for entry in entries:
        name = entry["argv"][0]
        ids.append(name if name not in ids else f"{name}-{entry['argv'][1]}")
    return ids


@pytest.mark.parametrize("entry", _pinned_text(), ids=_pinned_ids(_pinned_text()))
def test_text_stdout_pinned(entry):
    """The human-readable output, recorded before forms became tau-homogeneous:
    coefficients at tau exponents 0, 1, 2 and 5, negative ones among them.
    The projective ``cs --full`` entry was recorded later, before the
    transgression shared one evaluation between its class and its full form."""
    assert cli(*entry["argv"]) == (0, entry["stdout"], "")


@pytest.mark.parametrize("entry", _pinned("help_stdout.json"),
                         ids=lambda entry: " ".join(entry["argv"]))
def test_help_text_pinned(monkeypatch, entry):
    """The --help text of the top level and of every command, recorded when
    every query built the arguments of all eight commands."""
    monkeypatch.setenv("COLUMNS", "80")
    assert cli(*entry["argv"]) == (0, entry["stdout"], "")


def test_a_query_builds_the_arguments_of_its_own_command_only(monkeypatch):
    """The top level registers every command, each with its -h, and only the
    command queried gets its own arguments."""
    import argparse
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def record(parser, *flags, **keywords):
        added.append((parser.prog, flags))
        return add_argument(parser, *flags, **keywords)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", record)
    code, out, err = cli("chern", "projective", "--n", "1", "--rep", "tangent", "--max", "1")
    assert (code, err) == (0, "")
    assert sum(flags == ("-h", "--help") for _, flags in added) == 9
    assert [(prog, flags) for prog, flags in added if flags != ("-h", "--help")] == [
        ("cartan-invariants chern", flags) for flags in (
            ("model",), ("--n",), ("--p",), ("--q",), ("--o-weights",), ("--rep",),
            ("--max",), ("--json",))]
