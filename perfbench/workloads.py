"""Workload definitions and the golden-output check.

Each query is one CLI call.  A query with a polynomial argument (``--poly``
or ``--target``) is run with the polynomial scaled by a nonzero integer
``lam`` that the run's seed picks; its outputs are linear in the polynomial,
so the checker expects the recorded golden output with every form
coefficient multiplied by ``lam``, byte for byte.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden.json"
WORK_TOKEN = "{work}"

# Model files the chern-forms set-up writes with `model build` and its file
# queries read back, so model-file parsing sits on the request path.
MODEL_FILES = {
    "lagrangian3.json": ["lagrangian", "--n", "3"],
    "conformal6.json": ["conformal", "--n", "6"],
}

# name -> (argv, polynomial option or None, base polynomial)
QUERIES = {
    "chern-grass33": (["chern", "grassmannian", "--p", "3", "--q", "3", "--rep", "tangent",
                       "--max", "4"], None, None),
    "cs-grass22-c4": (["cs", "grassmannian", "--p", "2", "--q", "2", "--rep", "tangent",
                       "--full"], "--poly", "c4"),
    "cs-g2-c5": (["cs", "g2", "--rep", "graded-tangent", "--full"], "--poly", "5^5*c5-3*c1^5"),
    "cs-proj4-c3": (["cs", "projective", "--n", "4", "--rep", "tangent", "--full"],
                    "--poly", "c3"),
    "chern-file-lagrangian3": (["chern", WORK_TOKEN + "/lagrangian3.json", "--rep", "tangent",
                                "--max", "6"], None, None),
    "chern-file-conformal6": (["chern", WORK_TOKEN + "/conformal6.json", "--rep", "tangent",
                               "--max", "6"], None, None),
    "prim-proj4-c4": (["primitive", "projective", "--n", "4", "--rep", "tangent"],
                      "--target", "c4"),
    "prim-proj5-c3": (["primitive", "projective", "--n", "5", "--rep", "tangent"],
                      "--target", "c3"),
    "prim-g2-c5": (["primitive", "g2", "--rep", "graded-tangent", "--expect-exact"],
                   "--target", "5^5*c5-3*c1^5"),
    "rel-grass33-d4": (["relations", "grassmannian", "--p", "3", "--q", "3", "--rep", "tangent",
                        "--degree", "4", "--modulo-exact"], None, None),
    "rel-g2-d4": (["relations", "g2", "--rep", "graded-tangent", "--degree", "4",
                   "--modulo-exact"], None, None),
    "prim-g2-c5-monomial": (["primitive", "g2", "--rep", "graded-tangent", "--no-invariant",
                             "--expect-exact"], "--target", "5^5*c5-3*c1^5"),
    "prim-proj3-c3-monomial": (["primitive", "projective", "--n", "3", "--rep", "tangent",
                                "--no-invariant"], "--target", "c3"),
}

# name -> (queries, models the set-up builds or parses, intended layers)
WORKLOADS = {
    "chern-forms": (
        ["chern-grass33", "cs-grass22-c4", "cs-g2-c5", "cs-proj4-c3",
         "chern-file-lagrangian3", "chern-file-conformal6"],
        [("grassmannian", {"p": 3, "q": 3}), ("grassmannian", {"p": 2, "q": 2}),
         ("g2", {}), ("projective", {"n": 4}),
         ("file", {"path": "lagrangian3.json"}), ("file", {"path": "conformal6.json"})],
        ["charforms"],
    ),
    "primitive-invariant": (
        ["prim-proj4-c4", "prim-proj5-c3", "prim-g2-c5", "rel-grass33-d4", "rel-g2-d4"],
        [("projective", {"n": 4}), ("projective", {"n": 5}), ("g2", {}),
         ("grassmannian", {"p": 3, "q": 3})],
        ["forms.masks", "forms.invariant_basis"],
    ),
    "primitive-monomial": (
        ["prim-g2-c5-monomial", "prim-proj3-c3-monomial"],
        [("g2", {}), ("projective", {"n": 3})],
        ["linalg", "relations.find_primitive"],
    ),
}

# Fields of the --json output that hold forms, which scale with the polynomial.
FORM_FIELDS = ("cs_class", "chern_simons_form", "primitive")
POLY_FIELDS = ("poly", "target")


class Query:
    """One CLI call of a run: its argv and the polynomial scale it uses.
    ``lam`` None passes the base polynomial unscaled, as golden.json records it."""

    def __init__(self, name: str, lam: int | None, work: str):
        base_argv, opt, poly = QUERIES[name]
        self.name = name
        self.lam = lam
        if opt is None:
            self.poly = None
        else:
            self.poly = poly if lam is None else f"{lam}*({poly})"
        argv = [a.replace(WORK_TOKEN, work) for a in base_argv]
        if opt is not None:
            # The `=` form lets argparse take a value that starts with '-'.
            argv.append(f"{opt}={self.poly}")
        self.argv = argv + ["--json"]


def plan(workload: str, seed: int, work: str) -> list[Query]:
    """The run's queries in the order the seed fixes, each with its scale."""
    rng = random.Random(seed)
    names = list(WORKLOADS[workload][0])
    rng.shuffle(names)
    scales = [k for k in range(-9, 10) if k]
    out = []
    for name in names:
        lam = rng.choice(scales) if QUERIES[name][1] else 1
        out.append(Query(name, lam, work))
    return out


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def dump_json(obj) -> str:
    """The CLI's --json emission: compact separators, one line."""
    return json.dumps(obj, separators=(",", ":")) + "\n"


def _scale_form(rows, lam: int):
    if not isinstance(rows, list):
        return rows  # "not_exact" carries no form
    return [[names, e, str(Fraction(c) * lam)] for names, e, c in rows]


def expected_stdout(golden: dict, query: Query) -> str:
    """The golden stdout of the query, scaled by its ``lam``."""
    text = golden[query.name]["stdout"]
    if query.poly is None:
        return text
    obj = json.loads(text)
    for key in POLY_FIELDS:
        if key in obj:
            obj[key] = query.poly
    for key in FORM_FIELDS:
        if key in obj:
            obj[key] = _scale_form(obj[key], query.lam)
    return dump_json(obj)


def failure(golden: dict, query: Query, code: int | None, stdout: str,
            stderr: str) -> str | None:
    """Why a query execution failed the golden check, or None if it passed.

    ``code`` is None when the execution timed out.
    """
    if code is None:
        return "timeout"
    if "Traceback (most recent call last)" in stderr:
        return "traceback on stderr: " + stderr.strip().splitlines()[-1]
    if code != golden[query.name]["exit"]:
        return f"exit code {code}, golden {golden[query.name]['exit']}"
    if stdout != expected_stdout(golden, query):
        return "stdout differs from the golden output"
    return None
