"""Canonical JSON serialization of models.

Schema
    {
      "dims": [n_minus, n_zero, n_plus],
      "names": ["w1", ...],
      "brackets": [[i, j, [[k, "p/q"], ...]], ...],   # i < j, global indices
      "reps": {"label": {"dim": d, "matrices": [[["p/q", ...], ...], ...]}},
      "meta": {...}                                    # optional
    }

Emission is canonical (sorted brackets and rep labels, compact separators),
so emit(parse(text)) round-trips byte-identically for canonical files.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .model import LieModel, Rep
from .scalars import parse_rational


class ModelSchemaError(ValueError):
    pass


def _req(obj: dict, key: str, where: str):
    if key not in obj:
        raise ModelSchemaError(f"missing field {key!r} in {where}")
    return obj[key]


def _typed(value, kind: type, what: str):
    """``value`` if it is a ``kind`` (list or dict), else a schema error."""
    if not isinstance(value, kind):
        article = "a list" if kind is list else "an object"
        raise ModelSchemaError(f"{what} must be {article}, got {value!r}")
    return value


def _rational(value, what: str) -> Fraction:
    try:
        return parse_rational(value)
    except ValueError:
        raise ModelSchemaError(f"{what} has non-rational coefficient {value!r}")


def model_to_obj(m: LieModel) -> dict:
    brackets = []
    for (i, j) in sorted(m.brackets):
        comp = [[k, str(c)] for k, c in sorted(m.brackets[(i, j)].items())]
        brackets.append([i, j, comp])
    reps = {}
    for label in sorted(m.reps):
        rep = m.reps[label]
        reps[label] = {
            "dim": rep.dim,
            "matrices": [[[str(mat.get((i, j), 0)) for j in range(rep.dim)]
                          for i in range(rep.dim)] for mat in rep.matrices],
        }
    obj = {
        "dims": list(m.dims),
        "names": list(m.names),
        "brackets": brackets,
        "reps": reps,
    }
    meta = _meta_obj(m)
    if meta:
        obj["meta"] = meta
    return obj


def _meta_obj(m: LieModel) -> dict:
    meta = {}
    if "family" in m.meta:
        meta["family"] = m.meta["family"]
    if "params" in m.meta:
        meta["params"] = {k: m.meta["params"][k] for k in sorted(m.meta["params"])}
    flags = {}
    for label in sorted(m.reps):
        rep = m.reps[label]
        if rep.ghost or rep.g_module:
            flags[label] = {"ghost": rep.ghost, "g_module": rep.g_module}
    if flags:
        meta["flags"] = flags
    for key in ("pairing", "plus_transport"):
        if key in m.meta:
            meta[key] = [[str(Fraction(c)) for c in row] for row in m.meta[key]]
    return meta


def emit_model_json(m: LieModel) -> str:
    return json.dumps(model_to_obj(m), separators=(",", ":")) + "\n"


def model_from_obj(obj: dict) -> LieModel:
    _typed(obj, dict, "top level")
    dims = _req(obj, "dims", "model")
    if (not isinstance(dims, list) or len(dims) != 3
            or any(type(d) is not int or d < 0 for d in dims)):
        raise ModelSchemaError("dims must be three non-negative integers")
    names = _req(obj, "names", "model")
    total = sum(dims)
    if (not isinstance(names, list) or len(names) != total
            or any(not isinstance(n, str) for n in names)):
        raise ModelSchemaError(f"names must list exactly {total} strings")
    brackets = {}
    for entry in _typed(_req(obj, "brackets", "model"), list, "brackets"):
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ModelSchemaError(f"malformed bracket entry {entry!r}")
        i, j, comp = entry
        if not (type(i) is int and type(j) is int and 0 <= i < j < total):
            raise ModelSchemaError(f"bracket indices ({i},{j}) out of range (0..{total - 1}, i<j)")
        if (i, j) in brackets:
            raise ModelSchemaError(f"duplicate bracket entry ({i},{j})")
        parsed = brackets[(i, j)] = {}
        for pair in _typed(comp, list, f"bracket ({i},{j})"):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ModelSchemaError(f"malformed bracket term {pair!r} in ({i},{j})")
            k, coeff = pair
            if not (type(k) is int and 0 <= k < total):
                raise ModelSchemaError(
                    f"bracket ({i},{j}) hits generator {k!r} outside 0..{total - 1}")
            if k in parsed:
                raise ModelSchemaError(f"bracket ({i},{j}) lists generator {k} twice")
            parsed[k] = _rational(coeff, f"bracket ({i},{j}) component {k}")
    meta_obj = _typed(obj.get("meta", {}), dict, "meta")
    meta = {}
    if "family" in meta_obj:
        meta["family"] = meta_obj["family"]
    if "params" in meta_obj:
        meta["params"] = dict(_typed(meta_obj["params"], dict, "meta.params"))
    for key in ("pairing", "plus_transport"):
        if key in meta_obj:
            where = f"meta.{key}"
            meta[key] = [[_rational(c, where) for c in _typed(row, list, f"{where} row")]
                         for row in _typed(meta_obj[key], list, where)]
    flags = _typed(meta_obj.get("flags", {}), dict, "meta.flags")
    reps = {}
    for label, rd in _typed(_req(obj, "reps", "model"), dict, "reps").items():
        where = f"rep {label!r}"
        dim = _req(_typed(rd, dict, where), "dim", where)
        if type(dim) is not int or dim < 1:
            raise ModelSchemaError(f"{where} needs a positive integer dim, got {dim!r}")
        mats = _typed(_req(rd, "matrices", where), list, f"{where} matrices")
        if len(mats) != dims[1]:
            raise ModelSchemaError(
                f"{where} needs one matrix per g0 generator ({dims[1]}), got {len(mats)}")
        parsed_mats = []
        for mat in mats:
            if (not isinstance(mat, list) or len(mat) != dim
                    or any(not isinstance(row, list) or len(row) != dim for row in mat)):
                raise ModelSchemaError(f"{where} matrices must be {dim}x{dim}")
            # the string "0", the common entry, needs no parse to be dropped
            parsed_mats.append({(i, j): x for i, row in enumerate(mat) for j, c in enumerate(row)
                                if c != "0" and (x := _rational(c, where))})
        f = _typed(flags.get(label, {}), dict, f"meta.flags[{label!r}]")
        ghost, g_module = f.get("ghost", False), f.get("g_module", False)
        if type(ghost) is not bool or type(g_module) is not bool:
            raise ModelSchemaError(f"meta.flags[{label!r}] flags must be true or false, got {f!r}")
        reps[label] = Rep(label, parsed_mats, dim, ghost=ghost, g_module=g_module)
    try:
        return LieModel(tuple(dims), names, brackets, reps=reps, meta=meta)
    except ValueError as e:
        raise ModelSchemaError(str(e))


def parse_model_json(text: str) -> LieModel:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelSchemaError(f"invalid JSON: {e}")
    except RecursionError:
        raise ModelSchemaError("invalid JSON: nested too deeply")
    return model_from_obj(obj)


def parse_model_file(path: str) -> LieModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise ModelSchemaError(f"model file is not UTF-8 text: {e}")
    return parse_model_json(text)
