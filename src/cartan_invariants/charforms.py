"""Atiyah, Chern, Chern-character, Todd and Chern-Simons forms of a model.

Conventions.  The Atiyah matrix A of a module V collects the 2-forms
a(x, y) = -rho_V(proj_0 [x, y]) against the dual monomials x* ^ y* for x in
g+, y in g-; its entries carry no tau.  The form of an invariant f of degree k
is tau^k f(A), from one polarization at A of the trace words of f: Chern
forms c_k = tau^k e_k(A), Chern characters tau^j tr(A^j)/j! and Todd forms
tau^k td_k(A) among them.  CS_f carries tau^k too.

The transgression is normalized so that d CS_f = f(A, ..., A) (tau-scaled)
holds as an exact exterior identity on models whose g- bracket has no g0
component, which covers every built-in family; the coefficient sequence a_j
matches the classical one after the usual 2^j rebalancing against the
commutator argument (``cs_coefficients``).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm, prod
from typing import Iterator

from .forms import (Form, Grade, _wedge_sums, ce_differential, combination, plus_component,
                    wedge_all)
from .invariants import InvPoly
from .model import LieModel, Part, Rep, diagonal_block, tangent_rep


class MatrixForm:
    """Rectangular array of Forms."""

    __slots__ = ("grid", "rows", "cols")

    def __init__(self, grid: list[list[Form]]):
        self.grid = grid
        self.rows = len(grid)
        self.cols = len(grid[0]) if grid else 0
        for row in grid:
            if len(row) != self.cols:
                raise ValueError("ragged MatrixForm")

    def matwedge(self, other: "MatrixForm") -> "MatrixForm":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        flat = _wedge_sums([[(row[k], other.grid[k][j]) for k in range(self.cols)]
                            for row in self.grid for j in range(other.cols)])
        return MatrixForm([flat[i:i + other.cols] for i in range(0, len(flat), other.cols)])

    def trace_wedge(self, other: "MatrixForm") -> Form:
        """tr(self ^ other), without the off-diagonal entries of the product."""
        if self.cols != other.rows or self.rows != other.cols:
            raise ValueError("shape mismatch")
        return _wedge_sums([[(row[k], other.grid[k][i]) for i, row in enumerate(self.grid)
                             for k in range(self.cols)]])[0]

    def trace(self) -> Form:
        if self.rows != self.cols:
            raise ValueError("trace of non-square matrix")
        return sum((self.grid[i][i] for i in range(self.rows)), Form.zero())

    def is_zero(self) -> bool:
        return all(f.is_zero for row in self.grid for f in row)

    def entry_degree(self) -> int | None:
        degs = set().union(*(f.degrees() for row in self.grid for f in row))
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous matrix form, degrees {sorted(degs)}")
        return degs.pop()

    def __eq__(self, other) -> bool:
        return isinstance(other, MatrixForm) and self.grid == other.grid


def atiyah_form(m: LieModel, rep: Rep) -> MatrixForm:
    """Matrix of 2-forms sum_{x,y} a(x,y) x*^y*, a(x,y) = -rho(proj0 [x,y])."""
    n = rep.dim
    grid = [[dict() for _ in range(n)] for _ in range(n)]
    for x in m.part_range(Part.PLUS):
        for y in m.part_range(Part.MINUS):
            rho = rep.act(m, m.bracket_basis(x, y))  # rho(proj0[x,y])
            mask = (1 << y) | (1 << x)
            # a(x,y) = -rho, and x*^y* = -(y*^x*) in canonical (y-first)
            # order, so the stored coefficient on the mask is +rho.
            for (i, j), c in rho.items():
                grid[i][j][mask] = c
    return MatrixForm([[Form(grid[i][j]) for j in range(n)] for i in range(n)])


def tangent_atiyah_form(m: LieModel, rep: Rep | None = None):
    """Symmetrized tangent Atiyah tensor a_T(x,y,z) = (a(x,y)z + a(x,z)y)/2.

    Returned as a nested dict a_T[x][y][z] -> coefficient list over g-, with
    x a g+ gid and y, z g- gids.
    """
    rep = rep or tangent_rep(m)
    if rep.dim != m.dims[0]:
        raise ValueError("tangent Atiyah tensor needs the g- action")
    minus = list(m.part_range(Part.MINUS))
    out: dict[int, dict[int, dict[int, list[Fraction]]]] = {}
    rho = {(x, y): rep.act(m, m.bracket_basis(x, y))
           for x in m.part_range(Part.PLUS) for y in minus}
    for x in m.part_range(Part.PLUS):
        out[x] = {}
        for y in minus:
            out[x][y] = {}
            for z in minus:
                # a(x,y) = -rho(proj0[x,y]); minus gids are the g- row indices
                out[x][y][z] = [-Fraction(rho[(x, y)].get((i, z), 0)
                                          + rho[(x, z)].get((i, y), 0), 2) for i in minus]
    return out


def omega0_matrix(m: LieModel, rep: Rep) -> MatrixForm:
    """The 1-form matrix sum_b rho(e_b) eta^b over the g0 basis."""
    n = rep.dim
    grid = [[dict() for _ in range(n)] for _ in range(n)]
    for mat, b in zip(rep.matrices, m.part_range(Part.ZERO)):
        for (i, j), c in mat.items():
            grid[i][j][1 << b] = c
    return MatrixForm([[Form(grid[i][j]) for j in range(n)] for i in range(n)])


# -- Chern forms -----------------------------------------------------------


def chern_forms(m: LieModel, rep: Rep, k_max: int) -> list[Form]:
    """c_1 .. c_k with c_k = tau^k e_k(A), from the Newton series ``InvPoly.chern``."""
    if k_max > rep.dim:
        raise ValueError("k_max exceeds module dimension")
    return _characteristic_forms(m, rep, [InvPoly.chern(k) for k in range(1, k_max + 1)])


def chern_character(m: LieModel, rep: Rep, j_max: int) -> list[Form]:
    """ch_1 .. ch_j with ch_j = tau^j tr(A^j)/j!."""
    return _characteristic_forms(m, rep, [InvPoly.chern_character(j) for j in range(1, j_max + 1)])


def todd_forms(m: LieModel, rep: Rep, k_max: int) -> list[Form]:
    """td_1 .. td_k from the log-Todd series (``InvPoly.todd``)."""
    return _characteristic_forms(m, rep, [InvPoly.todd(k) for k in range(1, k_max + 1)])


# -- polarization / Chern-Simons ---------------------------------------------


def _koszul_sign(perm: tuple[int, ...], degrees: list[int]) -> int:
    sign = 1
    for i in range(len(perm)):
        if degrees[perm[i]] % 2 == 0:
            continue
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j] and degrees[perm[j]] % 2 == 1:
                sign = -sign
    return sign


def _distinct_orders(items: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Each distinct ordering of a multiset, once."""
    if not items:
        yield ()
    for x in dict.fromkeys(items):
        rest = list(items)
        rest.remove(x)
        for tail in _distinct_orders(tuple(rest)):
            yield (x, *tail)


def _word(cache: dict, word: tuple[MatrixForm, ...], traced: bool):
    """The product of a word of argument matrices, or with ``traced`` its trace, from
    ``cache``, keyed by the matrices' identities (each entry holds its word, so none
    is reused).  A product is its prefix times the last letter; a trace of m > 1
    letters is ``trace_wedge`` of the products of its halves, the first of
    ceil(m/2) letters, which words of the same letters share."""
    key = (traced, *map(id, word))
    if key in cache:
        return cache[key][1]
    if len(word) == 1:
        out = word[0].trace() if traced else word[0]
    elif traced:
        h = (len(word) + 1) // 2
        out = _word(cache, word[:h], False).trace_wedge(_word(cache, word[h:], False))
    else:
        out = _word(cache, word[:-1], False).matwedge(word[-1])
    cache[key] = (word, out)
    return out


def _trace_class(seq: tuple[int, ...], word: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The canonical key of the wedge of traces that a trace word cuts from a
    sequence of argument ids: each trace becomes its least rotation, as
    tr(P Q) = (-1)^(|P||Q|) tr(Q P), and the traces, forms that
    graded-commute, are sorted.  Both moves are Koszul moves of the
    arguments, so their sign is the key's own (see ``_polarized``)."""
    factors, pos = [], 0
    for part in word:
        seg = seq[pos:pos + part]
        pos += part
        factors.append(min(seg[r:] + seg[:r] for r in range(part)))
    return tuple(sorted(factors))


def _polarized(f: InvPoly, args: list[MatrixForm], words: dict | None = None) -> Form:
    """Unnormalized graded symmetrization sum_{sigma in S_k} of the trace words.

    Arguments with the same identity are collapsed, and each distinct
    argument sequence is visited once.  Each distinct argument has the
    degree of its entries, and a zero one counts as even (every term is then
    zero).  f's coefficients, over their common denominator, are summed per
    ``_trace_class`` of a sequence and a trace word; each class with a
    nonzero sum is evaluated once, from the ``_word`` cache ``words`` that
    callers share, with the weight prod m_i! and one sign: zero when an odd
    argument repeats, else the Koszul sign of the key.
    """
    k = len(args)
    if f.degree != k:
        raise ValueError(f"invariant of degree {f.degree} applied to {k} arguments")
    if k == 0:
        return Form.zero()
    words = {} if words is None else words
    seen: dict[int, int] = {}
    ids = [seen.setdefault(id(a), len(seen)) for a in args]
    uniq = {i: a for a, i in zip(args, ids)}
    deg = [2 if (d := a.entry_degree()) is None else d for a in uniq.values()]
    if any(deg[i] % 2 and ids.count(i) > 1 for i in uniq):
        return Form.zero()  # swapping two copies of an odd argument negates each term
    den = lcm(*(c.denominator for c in f.terms.values()))
    ints = {word: c.numerator * (den // c.denominator) for word, c in f.terms.items()}
    totals: dict[tuple, int] = {}
    for seq in _distinct_orders(tuple(ids)):
        for word, c in ints.items():
            key = _trace_class(seq, word)
            totals[key] = totals.get(key, 0) + c
    # Permuting the arguments, rotating a trace and sorting the traces are all
    # Koszul moves, so a term's sign is that of its key read as one sequence:
    # the odd ids, unique and numbered by first appearance, stand in increasing
    # order in ``ids``, so the sign _koszul_sign(tuple(ids), deg) is always +1.
    weight = prod(factorial(ids.count(i)) for i in uniq)
    return combination(
        (_koszul_sign(sum(key, ()), deg) * c,
         wedge_all(_word(words, tuple(uniq[i] for i in seg), True) for seg in key))
        for key, c in totals.items() if c).scale(Fraction(weight, den))


def invariant_poly_eval(f: InvPoly, args: list[MatrixForm]) -> Form:
    """Symmetric multilinear evaluation; at equal arguments it recovers f."""
    return _polarized(f, args).scale(Fraction(1, factorial(len(args))))


def cs_coefficients(k: int) -> list[Fraction]:
    """Transgression coefficients a_j = (-1)^j (k-1)! / ((k+j)! (k-1-j)!).

    The classical A_j are a_j / 2^j; the resulting form is the same either
    way because that normalization pairs with the doubled commutator
    argument.
    """
    return [Fraction((-1) ** j * factorial(k - 1), factorial(k + j) * factorial(k - 1 - j))
            for j in range(k)]


def _transgression_terms(m: LieModel, rep: Rep, f: InvPoly, count: int) -> list[Form]:
    """a_j f~(u, v^j, a^(k-1-j)) for j < count, without tau, from one ``_word`` cache.
    A term is zero, and not evaluated, when its 2j + 1 g0 factors (u's entries
    are g0 1-forms, v's g0 2-forms) pass dim g0, or its k - 1 - j copies of a
    (each entry with one g- and one g+ factor) pass dim g- or dim g+."""
    k = f.degree
    if k < 1:
        raise ValueError("need a positive-degree invariant")
    u, a = omega0_matrix(m, rep), atiyah_form(m, rep)
    v = u.matwedge(u) if count > 1 else None
    words: dict = {}
    room = min(m.dims[Part.MINUS], m.dims[Part.PLUS])
    return [Form.zero() if k - 1 - j > room or 2 * j + 1 > m.dims[Part.ZERO]
            else _polarized(f, [u] + [v] * j + [a] * (k - 1 - j), words).scale(c)
            for j, c in enumerate(cs_coefficients(k)[:count])]


def transgression(m: LieModel, rep: Rep, f: InvPoly) -> tuple[Form, Grade, Form]:
    """(cs_class, its grade, chern_simons_form) from one evaluation of CS_f:
    the class is its j = 0 term."""
    k = f.degree
    terms = _transgression_terms(m, rep, f, k)
    return terms[0].tau_shift(k), Grade(k - 1, 1, k - 1), sum(terms, Form.zero()).tau_shift(k)


def chern_simons_form(m: LieModel, rep: Rep, f: InvPoly) -> Form:
    """Transgression CS_f = tau^k sum_j a_j f~(u, v^j, a^(k-1-j)) with
    u the g0 1-form matrix, v its matrix square, a the Atiyah matrix and
    f~ the unnormalized polarization, its k terms sharing one ``_word`` cache.
    d(CS_f) recovers the Chern form of f on models with [g-, g-]_0 = 0 (all
    built-in families).  ``transgression`` returns it with ``cs_class``."""
    return transgression(m, rep, f)[2]


def cs_class(m: LieModel, rep: Rep, f: InvPoly) -> tuple[Form, Grade]:
    """The surviving quotient term of CS_f: tau^k a_0 f~(u, a^(k-1)), at grade
    (k-1, 1, k-1): the j = 0 term of ``transgression``, evaluated alone.
    Equals the plus-count-(k-1) component of the full form."""
    form = _transgression_terms(m, rep, f, 1)[0].tau_shift(f.degree)
    return form, Grade(f.degree - 1, 1, f.degree - 1)


def _characteristic_forms(m: LieModel, rep: Rep, fs: list[InvPoly]) -> list[Form]:
    """tau^k f(A, ..., A) for each f of degree k, from one Atiyah matrix and ``_word`` cache."""
    a, words = atiyah_form(m, rep), {}
    return [_polarized(f, [a] * f.degree, words)
            .scale(Fraction(1, factorial(f.degree))).tau_shift(f.degree) for f in fs]


def chern_form_of(m: LieModel, rep: Rep, f: InvPoly) -> Form:
    """tau^k f(A, ..., A), the Chern form associated to an invariant f."""
    return _characteristic_forms(m, rep, [f])[0]


def transgression_checks(m: LieModel, rep: Rep, f: InvPoly) -> dict:
    """Convenience bundle: d CS_f vs the Chern form, and the quotient identity
    quotient_d(cs_class) = Chern form."""
    t_form, _, cs = transgression(m, rep, f)
    target = chern_form_of(m, rep, f)
    return {
        "d_cs_equals_chern": ce_differential(m, cs) == target,
        "class_is_projection": plus_component(m, cs, f.degree - 1) == t_form,
        "quotient_d_equals_chern": plus_component(m, ce_differential(m, t_form), f.degree)
        == target,
    }


def verify_multiplicativity(m: LieModel, sub: Rep, total: Rep, quot: Rep,
                            k_max: int) -> dict:
    """Check the block-triangular splitting and c(sub)^c(quot) = c(total).

    ``total`` must act block-triangularly with ``sub`` in the top-left and
    ``quot`` in the bottom-right corner of the given basis.
    """
    ds, dq = sub.dim, quot.dim
    if total.dim != ds + dq:
        raise ValueError("dimension mismatch in exact sequence")
    for pos, mat in enumerate(total.matrices):
        if any(i >= ds > j for i, j in mat):
            raise ValueError(f"total rep is not block-triangular at g0 generator {pos}")
        if diagonal_block(mat, 0, ds) != sub.matrices[pos]:
            raise ValueError("sub block mismatch")
        if diagonal_block(mat, ds, ds + dq) != quot.matrices[pos]:
            raise ValueError("quot block mismatch")
    c_sub = [Form.unit()] + chern_forms(m, sub, min(k_max, ds))
    c_quot = [Form.unit()] + chern_forms(m, quot, min(k_max, dq))
    c_tot = [Form.unit()] + chern_forms(m, total, min(k_max, ds + dq))
    results = {}
    for k in range(1, min(k_max, ds + dq) + 1):
        acc = Form.zero()
        for i in range(0, k + 1):
            if i < len(c_sub) and (k - i) < len(c_quot):
                acc = acc + c_sub[i].wedge(c_quot[k - i])
        results[k] = acc == c_tot[k]
    return {"ok": all(results.values()), "by_degree": results}
