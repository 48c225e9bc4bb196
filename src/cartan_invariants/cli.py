"""Command-line interface.

Subcommands: model build | model validate, report, chern, cs, relations,
primitive, audit, conformal-coeffs.  Every pathway is a thin composition of
library calls; reports go to stdout (JSON under --json), diagnostics to
stderr.  Exit codes: 0 success, 1 mathematical not-exact under
--expect-exact, 2 usage or schema errors.
"""

from __future__ import annotations

import json
import os
import sys
from typing import TYPE_CHECKING, Callable

from .charforms import chern_form_of, chern_forms, cs_class, transgression
from .forms import Form, Grade, ce_differential, plus_component
from .invariants import PolyParseError, parse_poly
from .model import LieModel, Part, Rep, ValidationReport, validate_model, validate_rep
from .modelio import ModelSchemaError, emit_model_json, parse_model_file
from .models import FAMILIES, build_model
from .relations import (conformal_coefficients, exactness_audit, find_primitive,
                        find_relations, is_closed, partition_label)

if TYPE_CHECKING:
    import argparse

NATURAL_GRADE = {Part.MINUS: (1, 0, 0), Part.ZERO: (0, 1, 0), Part.PLUS: (0, 0, 1)}


def _natural_differentials(m: LieModel):
    """Each generator, the differential d of its dual, and the quotient
    differential at its natural grade: the plus-count r+1 part of d."""
    for gen in m.generators:
        d = ce_differential(m, Form.dual(gen.gid))
        yield gen, d, plus_component(m, d, NATURAL_GRADE[gen.part][2] + 1)


def structure_report(m: LieModel) -> dict:
    """Full and quotient differentials of every dual generator at its natural
    grade."""
    rows = [{"name": gen.name, "part": gen.part.name.lower(), "index": gen.index,
             "d": d.to_json(m), "quotient_d": dq.to_json(m)}
            for gen, d, dq in _natural_differentials(m)]
    return {"dims": list(m.dims), "generators": rows}


def _reject_flags(what: str, names: list[str]):
    _require(not names, f"{what} takes no "
             + ", ".join("--" + name.replace("_", "-") for name in names))


def _load_model(args, check: bool = True) -> LieModel:
    """The model of the query.  A model file must pass every check of
    ``model validate``, unless ``check`` is false: the first failure is a
    schema error."""
    token = args.model
    given = [name for name in ("n", "p", "q", "o_weights") if getattr(args, name) is not None]
    if token in FAMILIES:
        # the builder's parameters say which of --n, --p/--q, --o-weights
        # apply; a functools.wraps wrapper hides them behind __wrapped__
        builder = FAMILIES[token]
        while hasattr(builder, "__wrapped__"):
            builder = builder.__wrapped__
        code = builder.__code__
        takes = code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]
        _reject_flags(f"family {token!r}", [name for name in given if name not in takes])
        params = {}
        if "n" in takes:
            if args.n is None:
                raise SystemExit2(f"family {token!r} needs --n")
            params["n"] = args.n
        if "p" in takes:
            if args.p is None or args.q is None:
                raise SystemExit2(f"family {token!r} needs --p and --q")
            params["p"], params["q"] = args.p, args.q
        if "o_weights" in takes and args.o_weights is not None:
            try:
                params["o_weights"] = tuple(int(x) for x in args.o_weights.split(","))
            except ValueError:
                raise SystemExit2(f"--o-weights must be comma-separated integers, "
                                  f"not {args.o_weights!r}")
        try:
            return build_model(token, **params)
        except ValueError as e:
            raise SystemExit2(f"family {token!r}: {e}")
    if os.path.isfile(token):
        _reject_flags("a model file", given)
        m = parse_model_file(token)
        if check and not (report := _validation(m)).ok:
            first = report.failures[0]
            raise ModelSchemaError(f"model fails its {first['check']} check: {first['detail']}")
        return m
    raise SystemExit2(f"unknown model family or missing file: {token!r}")


def _model_and_rep(args) -> tuple[LieModel, Rep]:
    m = _load_model(args)
    if args.rep not in m.reps:
        raise SystemExit2(f"model has no rep {args.rep!r}; available: {sorted(m.reps)}")
    return m, m.reps[args.rep]


def _validation(m: LieModel) -> ValidationReport:
    """``validate_model``, then ``validate_rep`` on every rep in label order."""
    report = validate_model(m)
    for label in sorted(m.reps):
        for f in validate_rep(m, m.reps[label]).failures:
            report.add(f["check"], f["detail"])
    return report


class SystemExit2(Exception):
    pass


def _require(ok: bool, message: str):
    if not ok:
        raise SystemExit2(message)


def _emit(args, obj: Callable[[], dict], text_lines: Callable[[], list[str]]):
    """Print ``obj()`` as JSON under --json, else ``text_lines()``; only the
    one printed is built."""
    if args.json:
        print(json.dumps(obj(), separators=(",", ":")))
    else:
        for line in text_lines():
            print(line)


def cmd_model(args) -> int:
    m = _load_model(args, check=args.action == "build")
    if args.action == "build":
        text = emit_model_json(m)
        if args.output:
            try:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as e:
                raise SystemExit2(f"cannot write {args.output!r}: {e.strerror or e}")
        else:
            sys.stdout.write(text)
        return 0
    report = _validation(m)
    _emit(args, lambda: {"ok": report.ok, "failures": report.failures},
          lambda: ["ok" if report.ok else "FAILED"]
          + [f"  {f['check']}: {f['detail']}" for f in report.failures])
    return 0 if report.ok else 1


def cmd_report(args) -> int:
    m = _load_model(args)
    _emit(args, lambda: structure_report(m), lambda: [
        line for gen, d, dq in _natural_differentials(m)
        for line in (f"d({gen.name}) = {d.pretty(m)}", f"dq({gen.name}) = {dq.pretty(m)}")])
    return 0


def cmd_chern(args) -> int:
    m, rep = _model_and_rep(args)
    _require(args.max >= 1, "--max must be >= 1")
    k_max = min(args.max, rep.dim)
    cs = chern_forms(m, rep, k_max)
    _emit(args, lambda: {"model": m.meta.get("family", "file"), "rep": rep.label,
                         "forms": {f"c{k}": c.to_json(m) for k, c in enumerate(cs, start=1)}},
          lambda: [f"c{k} = {c.pretty(m)}" for k, c in enumerate(cs, start=1)])
    return 0


def cmd_cs(args) -> int:
    m, rep = _model_and_rep(args)
    poly = parse_poly(args.poly)
    t_form, grade, full = (transgression(m, rep, poly) if args.full
                           else (*cs_class(m, rep, poly), None))
    _emit(args, lambda: {"poly": args.poly, "grade": list(grade.as_tuple()),
                         "cs_class": t_form.to_json(m),
                         **({"chern_simons_form": full.to_json(m)} if args.full else {})},
          lambda: [f"grade = {grade.as_tuple()}", f"cs_class = {t_form.pretty(m)}"]
          + ([f"chern_simons_form = {full.pretty(m)}"] if args.full else []))
    return 0


def cmd_relations(args) -> int:
    m, rep = _model_and_rep(args)
    _require(1 <= args.degree <= rep.dim, f"--degree must be in 1..{rep.dim}, the rep dimension")
    rels = find_relations(m, rep, args.degree, modulo_exact=args.modulo_exact)
    lines = []
    for r in rels:
        bits = []
        for mon, c in r.nonzero():
            sign = "-" if c < 0 and bits else ("+" if bits else ("-" if c < 0 else ""))
            bits.append(f"{sign} {abs(c)}*{partition_label(mon)}".strip())
        lines.append(" ".join(bits) + " = 0")
    _emit(args, lambda: {"relations": [r.to_json() for r in rels]},
          lambda: lines or ["no relations"])
    return 0


def cmd_primitive(args) -> int:
    m, rep = _model_and_rep(args)
    _require(args.min_minus >= 0, "--min-minus must be >= 0")
    poly = parse_poly(args.target)
    if args.chern_form:
        xi = chern_form_of(m, rep, poly)
        grade = Grade(poly.degree, 0, poly.degree)
    else:
        xi, grade = cs_class(m, rep, poly)
    _require(grade.r >= 1, f"no primitive search at grade {grade.as_tuple()}: "
                           "it needs plus count >= 1")
    closed, residual = is_closed(m, xi, grade)
    if not closed:
        print(f"warning: target is not closed at grade {grade.as_tuple()}", file=sys.stderr)
    res = find_primitive(m, xi, grade, invariant_only=not args.no_invariant,
                         min_minus=args.min_minus)
    _emit(args, lambda: {
        "target": args.target,
        "grade": list(grade.as_tuple()),
        "primitive": res.psi.to_json(m) if res.exact else "not_exact",
        "certificate": {k: v for k, v in res.certificate.items()},
        "searched_dimension": res.searched_dimension,
    }, lambda: [f"grade = {grade.as_tuple()}",
                f"primitive = {res.psi.pretty(m)}" if res.exact
                else f"not exact; certificate = {res.certificate}"])
    if not res.exact and args.expect_exact:
        return 1
    return 0


def cmd_audit(args) -> int:
    m, rep = _model_and_rep(args)
    _require(rep.g_module, f"rep {rep.label!r} is not a g-module restriction")
    _require(args.max is None or args.max >= 1, "--max must be >= 1")
    report = exactness_audit(m, rep, args.max)
    lines = []
    for row in report["degrees"]:
        verdict = "zero form" if row["chern_form_zero"] else (
            "exact" if row["exact"] else "NOT exact")
        lines.append(f"c{row['k']}: {verdict}")
    _emit(args, lambda: {
        "rep": report["rep"],
        "degrees": [
            {k: (v.to_json(m) if isinstance(v, Form) else v) for k, v in row.items()}
            for row in report["degrees"]
        ],
    }, lambda: lines)
    if args.expect_exact and any(not row["exact"] for row in report["degrees"]):
        return 1
    return 0


# n = 1000 takes about 1 ms, but the output grows as n^2 (0.22 MB at n = 1000),
# and from about n = 14,300 a coefficient passes Python's 4,300-digit str limit.
CONFORMAL_N_MAX = 1000


def cmd_conformal_coeffs(args) -> int:
    _require(1 <= args.n <= CONFORMAL_N_MAX, f"--n must be in 1..{CONFORMAL_N_MAX}")
    coeffs = conformal_coefficients(args.n)
    _emit(args, lambda: {"n": args.n, "coefficients": [str(c) for c in coeffs]},
          lambda: [" ".join(str(c) for c in coeffs)])
    return 0


# Arguments as (*flags, add_argument keywords).  The model positional and
# the family parameters, --rep and --json are each declared once; every
# command takes --json, after its other arguments.
MODEL = [
    ("model", {"help": "family name (%s) or a model JSON file path" % "|".join(sorted(FAMILIES))}),
    ("--n", {"type": int, "help": "rank parameter for projective/conformal/lagrangian"}),
    ("--p", {"type": int, "help": "first block size"}),
    ("--q", {"type": int, "help": "second block size"}),
    ("--o-weights", {"help": "comma-separated line-module weights (projective only)"}),
]
REP = ("--rep", {"required": True})
JSON = ("--json", {"action": "store_true"})
EXPECT_EXACT = ("--expect-exact", {"action": "store_true"})

# name: (help, handler, arguments)
COMMANDS = {
    "model": ("build or validate model files", cmd_model, [
        ("action", {"choices": ["build", "validate"]}), *MODEL,
        ("-o", "--output", {})]),
    "report": ("structure equations of a model", cmd_report, MODEL),
    "chern": ("Chern forms of a module", cmd_chern, [
        *MODEL, REP, ("--max", {"type": int, "default": 5})]),
    "cs": ("transgression class of an invariant polynomial", cmd_cs, [
        *MODEL, REP, ("--poly", {"required": True}),
        ("--full", {"action": "store_true", "help": "also emit the full transgression form"})]),
    "relations": ("exact relations among Chern forms", cmd_relations, [
        *MODEL, REP, ("--degree", {"type": int, "required": True}),
        ("--modulo-exact", {"action": "store_true",
                            "help": "relations in the quotient cohomology instead of "
                                    "strict form equality"})]),
    "primitive": ("solve for a transgression primitive", cmd_primitive, [
        *MODEL, ("--rep", {"default": "tangent"}),
        ("--target", {"required": True, "help": "invariant polynomial, e.g. '5^5*c5-3*c1^5'"}),
        ("--chern-form", {"action": "store_true",
                          "help": "target the Chern form of the polynomial instead of "
                                  "its transgression class"}),
        ("--min-minus", {"type": int, "default": 0}),
        ("--no-invariant", {"action": "store_true"}), EXPECT_EXACT]),
    "audit": ("exactness audit of a g-module restriction", cmd_audit, [
        *MODEL, REP, ("--max", {"type": int}), EXPECT_EXACT]),
    "conformal-coeffs": ("coefficients of the conformal generating function",
                         cmd_conformal_coeffs, [("--n", {"type": int, "required": True})]),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with every command registered, which is all that the
    top-level help and an unknown command need, and the arguments of
    ``command`` alone."""
    import argparse  # at the top it precedes the package modules: ~0.1-0.2 MB more peak RSS
    ap = argparse.ArgumentParser(prog="cartan-invariants",
                                 description="Exact characteristic forms of "
                                             "homogeneous Cartan-geometry models")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, arguments) in COMMANDS.items():
        parser = sub.add_parser(name, help=help_text)
        parser.set_defaults(fn=handler)
        if name == command:
            for *flags, keywords in (*arguments, JSON):
                parser.add_argument(*flags, **keywords)
    return ap


def run(argv: list[str]) -> int:
    ap = build_parser(argv[0] if argv else None)
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (SystemExit2, PolyParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ModelSchemaError as e:
        print(f"schema error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
