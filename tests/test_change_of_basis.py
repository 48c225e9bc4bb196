"""Metamorphic check: the answers do not depend on the basis.

A seeded rational change of basis, block-diagonal by part (so g-, g0 and g+
stay what they are) with unit diagonal and small off-diagonal entries, is
applied once to g0 alone and once to all three blocks.  The brackets are
re-expressed in the new basis, the g0 reps are carried through the g0
block, and the tangent module is rebuilt on the new g- basis.  Relations,
invariant-space dimensions and primitive searches must come out the same,
although no g0 generator of the new basis need act diagonally any more.
"""

import random
from fractions import Fraction as F

import pytest

import cartan_invariants as ci
from cartan_invariants import linalg
from cartan_invariants.forms import Grade
from cartan_invariants.invariants import InvPoly
from cartan_invariants.model import LieModel, Part, Rep, sparse_sum, tangent_rep

CASES = [
    ("projective", {"n": 3}),
    ("grassmannian", {"p": 2, "q": 2}),
    ("conformal", {"n": 4}),
    ("lagrangian", {"n": 2}),
    ("g2", {}),
    ("split", {"p": 1, "q": 1}),
    ("foliated", {"p": 1, "q": 1}),
]


ENTRIES = (-1, 0, 0, 0, 1, F(1, 2))


def _basis_change(m: LieModel, parts, seed: int,
                  entries=ENTRIES) -> tuple[list[list[F]], list[list[F]]]:
    """P and its inverse, with column i of P the new generator i in old
    coordinates: the identity outside ``parts``, unit diagonal and seeded
    entries from ``entries`` inside each part, drawn again while P is singular."""
    rng = random.Random(seed)
    while True:
        P = [[F(int(i == j)) for j in range(m.total)] for i in range(m.total)]
        for part in parts:
            block = m.part_range(part)
            for i in block:
                for j in block:
                    if i != j:
                        P[i][j] = F(rng.choice(entries))
        inverse = _inverse(P)
        if inverse is not None:
            return P, inverse


def _inverse(P: list[list[F]]) -> list[list[F]] | None:
    n = len(P)
    rows = [row[:] + [F(int(i == j)) for j in range(n)] for i, row in enumerate(P)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c]), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def _tangent_label(m: LieModel) -> str:
    return "graded-tangent" if "graded-tangent" in m.reps else "tangent"


def _rebased(m: LieModel, parts, seed: int, entries=ENTRIES) -> LieModel:
    P, Pinv = _basis_change(m, parts, seed, entries)
    cols = [{j: P[j][i] for j in range(m.total) if P[j][i]} for i in range(m.total)]
    brackets = {}
    for i in range(m.total):
        for k in range(i + 1, m.total):
            old: dict[int, F] = {}
            for j, a in cols[i].items():
                for l, b in cols[k].items():
                    for t, c in m.bracket_basis(j, l).items():
                        old[t] = old.get(t, 0) + a * b * c
            brackets[(i, k)] = {s: sum(Pinv[s][t] * c for t, c in old.items())
                                for s in range(m.total)}
    new = LieModel(m.dims, m.names, brackets, meta=m.meta)
    zero = m.part_range(Part.ZERO)
    for label, rep in m.reps.items():
        mats = [sparse_sum(*((cols[a].get(b, 0), rep.matrices[b - zero.start]) for b in zero))
                for a in zero]
        new.reps[label] = Rep(label, mats, rep.dim, rep.ghost, rep.g_module)
    label = _tangent_label(m)
    new.reps[label] = tangent_rep(new, label)
    return new


def _answers(m: LieModel) -> dict:
    rep = m.reps[_tangent_label(m)]
    out = {}
    for k in range(1, min(rep.dim, 3) + 1):
        out["strict", k] = [r.coefficients for r in ci.find_relations(m, rep, k)]
        out["modulo_exact", k] = [r.coefficients for r in
                                  ci.find_relations(m, rep, k, modulo_exact=True)]
        out["sources", k] = len(ci.invariant_basis(m, 2 * k - 1, k - 1, k))
    # c2's transgression class, at grade (1, 1, 1), and its Chern form, at (2, 0, 2)
    c2 = InvPoly.chern(2)
    for target, grade in (ci.cs_class(m, rep, c2), (ci.chern_form_of(m, rep, c2), Grade(2, 0, 2))):
        res = ci.find_primitive(m, target, grade)
        out["primitive", grade] = res.status, res.certificate
        out["searched", grade] = len(ci.invariant_basis(m, grade.degree() - 1, grade.r - 1))
    return out


@pytest.mark.parametrize("family, params", CASES,
                         ids=[f + "".join(f"-{v}" for v in p.values()) for f, p in CASES])
@pytest.mark.parametrize("parts", [(Part.ZERO,), tuple(Part)], ids=["g0", "all"])
def test_answers_do_not_depend_on_the_basis(family, params, parts):
    m = ci.build_model(family, **params)
    new = _rebased(m, parts, seed=len(m.names) + 7 * len(parts))
    assert ci.validate_model(new).ok
    assert all(ci.validate_rep(new, rep).ok for rep in new.reps.values())
    assert _answers(new) == _answers(m)


def test_wide_constants_keep_the_elimination_narrow(monkeypatch):
    """projective(3) with its g0 basis changed by entries k/27 has a dual_d
    den of 15 digits.  Every row that linalg._clear leaves is divided by its
    content, so none grows past 4,096 bits (without that pass the widest
    passes 26,000), and the answers are those of the model itself."""
    m = ci.projective(3)
    new = _rebased(m, (Part.ZERO,), seed=11, entries=tuple(F(k, 27) for k in (-2, -1, 0, 0, 0, 1, 2)))
    assert new.dual_d()[0] == 202_218_646_827_591
    widest = 0
    clear = linalg._clear

    def measured(r, c, pivot_row):
        nonlocal widest
        clear(r, c, pivot_row)
        widest = max([widest, *(abs(v).bit_length() for v in r.values())])

    monkeypatch.setattr(linalg, "_clear", measured)
    assert _answers(new) == _answers(m)
    assert widest <= 4096, widest
