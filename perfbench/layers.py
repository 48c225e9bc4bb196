"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each layer's public functions by timing wrappers
in every ``cartan_invariants`` module namespace that binds them (``cli``
imports ``find_primitive`` and others by name) and in ``models.FAMILIES``;
``uninstall`` puts the originals back.  A call opens a span only when it
enters a layer from outside it, so a layer calling itself (``rank`` calling
``rref``) is one span.  A layer's self time is its spans' time minus the
time of the spans they caused.  Size counts are taken at the same
boundaries; their time is kept out of every self time.

``scalars`` is not wrapped: it runs once per term, so wrapping it would
swamp the run; its cost shows in the charforms and forms self times.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from functools import wraps
from time import perf_counter

import cartan_invariants  # noqa: F401  (loads every module to patch)
from cartan_invariants import models

# layer -> (module, function names)
LAYERS = {
    "charforms.atiyah": ("charforms", ("atiyah_form", "omega0_matrix", "tangent_atiyah_form")),
    "charforms.chern": ("charforms", ("chern_forms", "chern_character", "todd_forms",
                                      "chern_form_of")),
    "charforms.polarize": ("charforms", ("_polarized", "invariant_poly_eval")),
    "charforms.transgression": ("charforms", ("chern_simons_form", "cs_class")),
    "forms.masks": ("forms", ("monomial_masks",)),
    "forms.invariant_basis": ("forms", ("invariant_basis",)),
    "forms.differential": ("forms", ("ce_differential", "quotient_d", "plus_component")),
    "linalg": ("linalg", ("rref", "rank", "nullspace", "solve", "row_space_rref")),
    "relations.find_primitive": ("relations", ("find_primitive",)),
    "relations.find_relations": ("relations", ("find_relations",)),
    "models": ("models", ("build_model",) + tuple(f.__name__ for f in models.FAMILIES.values())),
    "modelio": ("modelio", ("parse_model_file", "parse_model_json", "model_from_obj",
                            "emit_model_json")),
    "model.validate": ("model", ("validate_model", "validate_rep")),
    "invariants.parse": ("invariants", ("parse_poly",)),
}


def _matrix_sizes(tracer, args, parent):
    data = args[0].data if hasattr(args[0], "data") else args[0]
    if not isinstance(data, (list, tuple)):
        return  # an iterator: counting it would consume the caller's input
    tracer.counts["linalg.cells"] += len(data) * (len(data[0]) if data else 0)
    tracer.counts["linalg.nonzeros"] += sum(1 for row in data for x in row if x)


def _file_bytes(tracer, args, parent):
    tracer.counts["modelio.bytes_parsed"] += os.path.getsize(args[0])


def _text_bytes(tracer, args, parent):
    tracer.counts["modelio.bytes_parsed"] += len(args[0].encode("utf-8"))


def _masks(tracer, result, parent):
    tracer.counts["forms.masks.count"] += len(result)
    if parent == "forms.invariant_basis":
        tracer.counts["forms.invariant_basis.masks"] += len(result)


def _basis(tracer, result, parent):
    tracer.counts["forms.invariant_basis.dim"] += len(result)


def _primitive(tracer, result, parent):
    tracer.counts["relations.find_primitive.columns"] += result.searched_dimension
    tracer.counts["relations.find_primitive.not_exact"] += not result.exact


def _form_terms(tracer, result, parent):
    if parent is not None and parent.startswith("charforms."):
        return  # counted where charforms returns to its caller
    if isinstance(result, tuple):
        result = result[0]  # cs_class returns (form, grade)
    forms = result if isinstance(result, list) else [result]
    tracer.counts["charforms.form_terms"] += sum(len(f.terms) for f in forms
                                                 if hasattr(f, "terms"))


# Hooks run at a layer boundary: BEFORE on the arguments, AFTER on the result.
BEFORE = {"linalg": _matrix_sizes, "parse_model_file": _file_bytes,
          "parse_model_json": _text_bytes}
AFTER = {"monomial_masks": _masks, "invariant_basis": _basis, "find_primitive": _primitive}


class Tracer:
    """Spans and counts of one traced pass; reset between passes."""

    def __init__(self):
        self._stack: list[list] = []  # open spans: [layer, time of child spans]
        self._saved: list[tuple[object, object, object]] = []
        self.reset()

    def reset(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, layer: str, fn):
        before = BEFORE.get(fn.__name__) or BEFORE.get(layer)
        after = AFTER.get(fn.__name__) or (_form_terms if layer.startswith("charforms.")
                                           else None)
        stack = self._stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            if parent == layer:
                return fn(*args, **kwargs)
            if before:
                self._hook(before, args, None)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self.self_s[layer] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            self.counts[f"{layer}.calls"] += 1
            self.counts[f"{layer}.{fn.__name__}.calls"] += 1
            if after:
                self._hook(after, result, parent)
            return result

        return wrapper

    def _hook(self, hook, value, parent):
        """Run a size hook, keeping its time out of every layer's self time."""
        t0 = perf_counter()
        hook(self, value, parent)
        if self._stack:
            self._stack[-1][1] += perf_counter() - t0

    def install(self):
        """Patch every binding of every layer function, until ``uninstall``."""
        wrappers = {}
        for layer, (module, names) in LAYERS.items():
            mod = sys.modules[f"cartan_invariants.{module}"]
            for name in names:
                fn = getattr(mod, name)
                wrappers[fn] = self.wrap(layer, fn)
        namespaces = [vars(mod) for name, mod in sys.modules.items()
                      if name == "cartan_invariants" or name.startswith("cartan_invariants.")]
        namespaces.append(models.FAMILIES)
        for ns in namespaces:
            for key, value in list(ns.items()):
                if callable(value) and value in wrappers:
                    self._saved.append((ns, key, value))
                    ns[key] = wrappers[value]

    def uninstall(self):
        while self._saved:
            ns, key, value = self._saved.pop()
            ns[key] = value
