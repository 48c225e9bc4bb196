"""Exact relations among Chern forms, closedness, and transgression primitives.

Relation discovery is a nullspace computation: columns are the monomials
c_1^{m_1} ... c_k^{m_k} of weighted degree k (one per partition of k),
rows are the coefficients of the evaluated 2k-forms.  Every returned
relation is re-evaluated from scratch before it is reported.

A primitive of a class xi at grade (p, q, r) is a cochain psi with plus
count r-1 whose induced differential reproduces xi exactly; failure is a
mathematical finding reported with the rank certificate of the linear
system and a left vector that proves it (Fredholm alternative), not an
error.
"""

from __future__ import annotations

from math import gcd

from .charforms import chern_forms
from .forms import (Form, Grade, ce_differential, combination, invariant_basis, is_at_grade,
                    monomial_masks, plus_component, quotient_d, wedge_all)
from .linalg import (Vector, fredholm_witness, is_fredholm_witness, nullspace, row_space_rref,
                     solve)
from .model import LieModel, Record, Rep, derivation_nums

Partition = tuple[int, ...]


def partitions_of(k: int) -> list[Partition]:
    """Partitions of k in descending lex order, so c_k comes first and c_1^k last."""
    out: list[Partition] = []

    def rec(remaining: int, cap: int, acc: list[int]):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(cap, remaining), 0, -1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(k, k, [])
    out.sort(reverse=True)
    return out


def partition_label(p: Partition) -> str:
    factors = []
    i = 0
    while i < len(p):
        j = i
        while j < len(p) and p[j] == p[i]:
            j += 1
        factors.append(f"c{p[i]}" + (f"^{j - i}" if j - i > 1 else ""))
        i = j
    return "*".join(factors) if factors else "1"


class Relation(Record):
    __slots__ = ("degree", "partitions", "coefficients")

    def __init__(self, degree: int, partitions: tuple[Partition, ...],
                 coefficients: tuple[int, ...]):
        self.degree = degree
        self.partitions = partitions
        self.coefficients = coefficients  # aligned with ``partitions``, coprime, leading > 0

    def nonzero(self) -> list[tuple[Partition, int]]:
        return [(p, c) for p, c in zip(self.partitions, self.coefficients) if c]

    def to_json(self) -> dict:
        nz = self.nonzero()
        return {
            "monomials": [partition_label(p) for p, _ in nz],
            "coefficients": [str(c) for _, c in nz],
        }


def find_relations(m: LieModel, rep: Rep, degree: int,
                   modulo_exact: bool = False) -> list[Relation]:
    """Integer relations among the weighted-degree-``degree`` Chern monomials
    of the module, as a canonical basis.

    With ``modulo_exact`` false (the default) a relation must evaluate to the
    exact zero form.  With it true, relations are taken in the trigraded
    quotient cohomology at grade (degree, 0, degree): the evaluated
    combination only has to be the induced differential of a g0-invariant
    cochain with minus count at least ``degree``.  Either way every returned
    relation is independently re-verified.
    """
    if degree > rep.dim:
        raise ValueError("degree exceeds module dimension")
    cforms = chern_forms(m, rep, degree)
    parts = partitions_of(degree)
    monomials = [wedge_all(cforms[q - 1] for q in p) for p in parts]
    columns = [f.coefficients(degree) for f in monomials]
    # The Chern monomials carry tau^degree and enter as rational columns, the
    # exact corrections b_j as D den_j d(b_j) in integers, D the dual_d den.
    # A kernel row x with a monomial pivot is g times a relation, g its
    # content there, and psi = -sum_j x_j D den_j b_j (zero when strict) has
    # d(psi) = g times the relation's residual.
    n, (den, d) = len(parts), m.dual_d()
    sources = invariant_basis(m, 2 * degree - 1, degree - 1, degree) if modulo_exact else []
    columns += [derivation_nums(m, d, b.nums, degree) for b in sources]
    out = []
    for row in row_space_rref(nullspace(columns)):
        if min(row) >= n:
            continue
        g = gcd(*(row.get(j, 0) for j in range(n)))
        coeffs = tuple(row.get(j, 0) // g for j in range(n))
        psi = combination((-x * den * sources[j - n].den, sources[j - n])
                          for j, x in row.items() if j >= n).tau_shift(degree)
        residual = combination(zip(coeffs, monomials))
        if plus_component(m, ce_differential(m, psi), degree) != residual.scale(g):
            raise AssertionError("relation failed independent re-evaluation")
        out.append(Relation(degree, tuple(parts), coeffs))
    return out


def conformal_coefficients(n: int) -> list[int]:
    """Coefficients a_1..a_n of sum_{q=0}^{m} (1+h)^{n-2q} h^{2q}, n = 2m or 2m+1.

    The sum is geometric in h^2/(1+h)^2: ((1+h)^(n+2) - h^(2m+2) (1+h)^(n-2m))
    / (1+2h).  Its second term starts above degree n, so dividing (1+h)^(n+2)
    from the low degree up gives a_i = C(n+2, i) - 2 a_(i-1), exact over Z."""
    if n < 1:
        raise ValueError("n >= 1")
    poly, binom = [1], 1
    for i in range(1, n + 1):
        binom = binom * (n + 3 - i) // i  # C(n+2, i)
        poly.append(binom - 2 * poly[-1])
    return poly[1:]


def is_closed(m: LieModel, xi: Form, grade: Grade) -> tuple[bool, Form]:
    residual = quotient_d(m, xi, grade)
    return residual.is_zero, residual


def invariant_cocycles(m: LieModel, grade: Grade, min_minus: int | None = None) -> list[Form]:
    """Basis of the g0-invariant forms at the given grade that are closed in
    the quotient differential (min_minus defaults to the grade's p).  Column
    j is d(b_j) times den_j and the ``dual_d`` den, so x gives sum x_j den_j b_j."""
    min_minus = grade.p if min_minus is None else min_minus
    basis = invariant_basis(m, grade.degree(), grade.r, min_minus)
    cols = [derivation_nums(m, m.dual_d()[1], b.nums, grade.r + 1) for b in basis]
    return [combination((c * basis[j].den, basis[j]) for j, c in combo.items())
            for combo in nullspace(cols)]


class PrimitiveResult(Record):
    """Outcome of a primitive search.

    A ``not_exact`` result carries ``witness``: a left vector y (monomial mask
    -> Fraction) that pairs to zero with the induced differential of every
    searched cochain and to a nonzero number with the tau^e coefficients of
    the target, e = ``certificate["tau_exponent"]``.  By the Fredholm
    alternative it proves that no primitive exists in the searched space.
    """

    __slots__ = ("status", "psi", "grade", "searched_dimension", "certificate", "witness")

    def __init__(self, status: str, psi: Form | None, grade: Grade, searched_dimension: int,
                 certificate: dict, witness: Vector | None = None):
        self.status = status  # "exact" | "not_exact"
        self.psi = psi
        self.grade = grade
        self.searched_dimension = searched_dimension
        self.certificate = certificate
        self.witness = witness

    @property
    def exact(self) -> bool:
        return self.status == "exact"


def find_primitive(m: LieModel, xi: Form, grade: Grade, invariant_only: bool = True,
                   min_minus: int = 0) -> PrimitiveResult:
    """Solve quotient_d(psi) = xi over cochains of plus count r-1.

    The search space is restricted to the g0-invariant subspace by default;
    the induced differential commutes with the reductive g0-action, so an
    invariant primitive exists whenever any primitive does, provided xi is
    itself invariant.  The search is one ``solve`` of [A | b], with b the
    tau^e coefficients of xi and e its tau exponent, which also gives the
    certificate ranks; a ``not_exact`` result costs one more, for its witness.
    Column j of A is ``derivation_nums`` of d on b_j's numerators, so with D the
    ``dual_d`` den and den_j b_j's (1 for a monomial), psi = sum_j x_j D den_j
    b_j, and no ``Form`` is built per column.  Either result is re-verified:
    psi by its differential, a witness exactly.
    """
    if grade.r < 1:
        raise ValueError("primitive search needs plus count >= 1")
    if not is_at_grade(m, xi, grade):
        raise ValueError(f"target not at grade {grade.as_tuple()}")
    deg, (den, d) = grade.degree() - 1, m.dual_d()
    if invariant_only:
        basis = invariant_basis(m, deg, grade.r - 1, min_minus)
        columns = [derivation_nums(m, d, b.nums, grade.r) for b in basis]
    else:
        masks = monomial_masks(m, deg, grade.r - 1, min_minus)
        columns = [derivation_nums(m, d, {mask: 1}, grade.r) for mask in masks]
    n = len(columns)
    b = xi.coefficients(xi.tau)
    x, rank = solve(columns, b)
    if x is None:
        y = fredholm_witness(columns, b)
        if not is_fredholm_witness(columns, b, y):
            raise AssertionError("not-exact witness failed re-verification")
        return PrimitiveResult(
            "not_exact", None, grade, n,
            {"matrix_rank": rank, "augmented_rank": rank + 1,
             "columns": n, "tau_exponent": xi.tau},
            y,
        )
    psi = (combination((c * den * basis[j].den, basis[j]) for j, c in x.items()) if invariant_only
           else Form({masks[j]: c * den for j, c in x.items()})).tau_shift(xi.tau)
    check = plus_component(m, ce_differential(m, psi), grade.r)
    if check != xi:
        raise AssertionError("primitive failed re-verification")
    return PrimitiveResult("exact", psi, grade, n, {"matrix_rank": rank, "columns": n})


def exactness_audit(m: LieModel, rep: Rep, k_max: int | None = None) -> dict:
    """For a module that restricts a representation of the whole algebra,
    test each Chern form for exactness at grade (k, 0, k) in the quotient
    differential, with the full (min_minus = 0) search space, in degrees 1 to
    ``k_max`` (every degree up to ``rep.dim`` by default)."""
    if not rep.g_module:
        raise ValueError("exactness audit applies to g-module restrictions only")
    if k_max is not None and k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    cforms = chern_forms(m, rep, rep.dim if k_max is None else min(k_max, rep.dim))
    rows = []
    for k, ck in enumerate(cforms, start=1):
        if ck.is_zero:
            rows.append({"k": k, "chern_form_zero": True, "exact": True, "primitive": None})
            continue
        grade = Grade(k, 0, k)
        res = find_primitive(m, ck, grade, invariant_only=True, min_minus=0)
        rows.append({
            "k": k,
            "chern_form_zero": False,
            "exact": res.exact,
            "primitive": res.psi,
            "certificate": res.certificate,
        })
    return {"rep": rep.label, "degrees": rows}
