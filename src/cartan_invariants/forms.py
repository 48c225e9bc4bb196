"""Sparse exterior algebra over the dual generators of a model.

Monomials are bitmasks over the global generator order, so structural
equality, wedge signs and trigrade counts are all bit arithmetic.  A Form
is homogeneous in tau: one tau exponent, one positive integer denominator
and a map from monomial masks to integer numerators, in lowest terms.

Every operation on forms (sums, scaling, the wedge and the CE
differential) runs on those integers: the derivation tables are held as
numerators over the structure constants' LCM, sums accumulate as
``{mask: int}`` over the product or LCM of the denominators, and one gcd
pass brings each result to lowest terms.  d and every coadjoint action are
applied by ``model.derivation_nums``; ``ce_differential`` wraps it in a
Form, and the invariant subspaces read g0's coadjoint tables as plain data.
``Fraction``s are built only by ``terms`` and ``coefficients``; ``to_json``
and ``pretty`` print each n/den reduced by its own gcd.

The trigrade (p, q, r) of a monomial counts its g-*, g0*, g+* factors.  The
differential induced on the quotient of the plus-count filtration keeps, of
the full Chevalley-Eilenberg differential, exactly the terms that raise the
plus count by one; see ``quotient_d``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Iterable

from .linalg import nullspace, row_space_rref
from .model import (Derivation, FrozenRecord, LieModel, Part, derivation_nums, mask_bits,
                    parity_above)


class Form:
    """Exterior form tau**tau * sum_mask (nums[mask] / den) mask, built from
    ``terms``, a map from masks to rationals (``int`` or ``Fraction``).

    The tau exponent is stored once, with a positive integer ``den`` and
    integer numerators ``nums``, kept canonical: no zero numerator,
    ``gcd(den, *nums) == 1`` and ``den == 1`` for the zero form, so equal
    forms have equal ``den`` and ``nums``.  The zero form is equal to every
    other zero form and neutral under ``+`` whatever its exponent.  The
    read-only ``terms`` builds the coefficients as reduced ``Fraction``s.
    """

    __slots__ = ("nums", "den", "tau", "_left")

    def __init__(self, terms: dict[int, Fraction] | None = None, tau: int = 0):
        # rationals are in lowest terms, so over the LCM of their
        # denominators the numerators are already coprime to it
        terms = {mask: c for mask, c in terms.items() if c} if terms else {}
        self.den = lcm(*(c.denominator for c in terms.values()))
        self.nums = {mask: c.numerator * (self.den // c.denominator) for mask, c in terms.items()}
        self.tau = tau
        self._left = None

    @classmethod
    def zero(cls) -> "Form":
        return cls()

    @classmethod
    def unit(cls) -> "Form":
        return cls({0: 1})

    @classmethod
    def monomial(cls, mask: int, coeff=1, tau: int = 0) -> "Form":
        return cls({mask: coeff}, tau)

    @classmethod
    def dual(cls, gid: int) -> "Form":
        """The dual 1-form of a single generator."""
        return cls.monomial(1 << gid)

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def terms(self) -> dict[int, Fraction]:
        """The coefficients, as mask -> reduced nonzero ``Fraction``."""
        den = self.den
        return {mask: Fraction(n, den) for mask, n in self.nums.items()}

    def __add__(self, other: "Form") -> "Form":
        if not other.nums:
            return self
        if not self.nums:
            return other
        if self.tau != other.tau:
            raise ValueError(f"sum of forms at tau^{self.tau} and tau^{other.tau}")
        d = lcm(self.den, other.den)
        fa, fb = d // self.den, d // other.den
        out = {mask: n * fa for mask, n in self.nums.items()}
        for mask, n in other.nums.items():
            out[mask] = out.get(mask, 0) + n * fb
        return _form(out, d, self.tau)

    def __neg__(self) -> "Form":
        return _form({mask: -n for mask, n in self.nums.items()}, self.den, self.tau)

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def scale(self, c) -> "Form":
        """Multiply by a rational (``int`` or ``Fraction``)."""
        p, q = c.numerator, c.denominator
        if not p:
            return _form({}, 1, self.tau)
        nums = self.nums if p == 1 else {mask: n * p for mask, n in self.nums.items()}
        return _form(nums, self.den * q, self.tau)

    def tau_shift(self, k: int) -> "Form":
        """Multiply by tau**k."""
        return _form(self.nums, self.den, self.tau + k)

    def wedge(self, other: "Form") -> "Form":
        return _wedge_sums([[(self, other)]])[0]

    def left_view(self) -> list[tuple[int, int, int]]:
        """[(mask, parity_above(mask), numerator)], built on first use and kept."""
        if self._left is None:
            self._left = [(mask, parity_above(mask), n) for mask, n in self.nums.items()]
        return self._left

    def wedge_power(self, k: int) -> "Form":
        return wedge_all([self] * k)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Form) and self.nums == other.nums and self.den == other.den
                and (self.tau == other.tau or not self.nums))

    def __hash__(self):
        return hash((self.tau if self.nums else 0, self.den, tuple(sorted(self.nums.items()))))

    def degrees(self) -> set[int]:
        return {mask.bit_count() for mask in self.nums}

    def coefficients(self, tau: int = 0) -> dict[int, Fraction]:
        """The coefficients of tau**tau, as mask -> Fraction; a nonzero form
        must sit at that exponent."""
        if self.nums and self.tau != tau:
            raise AssertionError(f"form at tau^{self.tau} read at tau^{tau}")
        return self.terms

    def _sorted_terms(self) -> list[tuple[int, list[int], str]]:
        """(degree, generator ids, coefficient string) of each term, in
        canonical order: by degree, then by the ids."""
        den, out = self.den, []
        for mask, n in self.nums.items():
            g = gcd(n, den)
            out.append((mask.bit_count(), mask_bits(mask),
                        str(n // g) if den == g else f"{n // g}/{den // g}"))
        return sorted(out)

    def to_json(self, model: LieModel) -> list:
        return [[[model.names[g] for g in b], self.tau, c] for _, b, c in self._sorted_terms()]

    def pretty(self, model: LieModel) -> str:
        if not self.nums:
            return "0"
        t = "" if self.tau == 0 else "*t" if self.tau == 1 else f"*t^{self.tau}"
        return " + ".join(f"({c}{t})·{'∧'.join(model.names[g] for g in bits) or '1'}"
                          for _, bits, c in self._sorted_terms())

    def __repr__(self) -> str:
        return f"Form<{len(self.nums)} terms, tau^{self.tau}>"


def _form(acc: dict[int, int], den: int, tau: int) -> Form:
    """The form tau**tau * sum_mask (acc[mask] / den) mask, den > 0, made
    canonical: zero numerators dropped, then one gcd pass over den and the
    rest.  ``acc`` itself is kept when it is already canonical: forms share
    their numerator dicts and never mutate them."""
    nums = acc if all(acc.values()) else {mask: n for mask, n in acc.items() if n}
    g = gcd(den, *nums.values())
    res = Form.__new__(Form)
    res.nums, res.den = (nums, den) if g == 1 else ({m: n // g for m, n in nums.items()}, den // g)
    res.tau = tau
    res._left = None
    return res


def _wedge_sums(sums: list[list[tuple[Form, Form]]]) -> list[Form]:
    """For each list of pairs (a, b), the form sum of a ^ b, in integers.

    A left operand is read through the view it keeps (``left_view``), a
    right one through its numerators; a sum accumulates ``{mask: int}`` over
    the LCM of its pairs' denominator products.  Pairs with a zero operand
    are skipped; the others must agree in tau.
    """
    out = []
    for pairs in sums:
        live = [(a, b) for a, b in pairs if a.nums and b.nums]
        # a zero sum keeps the exponent of its first pair
        taus = {a.tau + b.tau for a, b in live} or {sum(f.tau for f in pairs[0]) if pairs else 0}
        if len(taus) > 1:
            raise ValueError(f"sum of forms at tau exponents {sorted(taus)}")
        d = lcm(*(a.den * b.den for a, b in live))
        acc: dict[int, int] = {}
        for a, b in live:
            f = d // (a.den * b.den)
            right = list(b.nums.items())
            for m1, p1, n1 in a.left_view():
                n1 *= f
                for m2, n2 in right:
                    if m1 & m2:
                        continue
                    mask = m1 | m2
                    if (p1 & m2).bit_count() & 1:
                        acc[mask] = acc.get(mask, 0) - n1 * n2
                    else:
                        acc[mask] = acc.get(mask, 0) + n1 * n2
        out.append(_form(acc, d, taus.pop()))
    return out


def combination(terms: Iterable[tuple[Fraction | int, Form]]) -> Form:
    """sum c * f over the pairs (c, f), accumulated once as integer
    numerators over the LCM of the denominators; the nonzero terms must
    agree in tau."""
    live = [(c, f) for c, f in terms if c and f.nums]
    taus = {f.tau for _, f in live} or {0}
    if len(taus) > 1:
        raise ValueError(f"sum of forms at tau exponents {sorted(taus)}")
    d = lcm(*(c.denominator * f.den for c, f in live))
    acc: dict[int, int] = {}
    for c, f in live:
        k = c.numerator * (d // (c.denominator * f.den))
        for mask, n in f.nums.items():
            acc[mask] = acc.get(mask, 0) + k * n
    return _form(acc, d, taus.pop())


def wedge_all(factors: Iterable[Form]) -> Form:
    """The wedge of the factors in order, the unit for none; an iterator is
    read only up to the first zero partial product."""
    acc = None
    for f in factors:
        acc = f if acc is None else acc.wedge(f)
        if acc.is_zero:
            break
    return Form.unit() if acc is None else acc


class Grade(FrozenRecord):
    __slots__ = ("p", "q", "r")

    def __init__(self, p: int, q: int, r: int):
        self._init(p, q, r)

    def degree(self) -> int:
        return self.p + self.q + self.r

    def raised(self) -> "Grade":
        return Grade(self.p, self.q, self.r + 1)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.p, self.q, self.r)


def plus_count(m: LieModel, mask: int) -> int:
    return (mask & m.plus_mask).bit_count()


def minus_count(m: LieModel, mask: int) -> int:
    return (mask & m.minus_mask).bit_count()


def is_at_grade(m: LieModel, form: Form, grade: Grade) -> bool:
    """A form sits at (p,q,r) iff every monomial has plus count exactly r,
    minus count at least p, and total degree p+q+r."""
    deg = grade.degree()
    return all(mask.bit_count() == deg and plus_count(m, mask) == grade.r
               and minus_count(m, mask) >= grade.p for mask in form.nums)


class GradeError(ValueError):
    pass


def ce_differential(m: LieModel, form: Form, plus: int | None = None) -> Form:
    """Chevalley-Eilenberg differential, extended to monomials as an odd derivation.

    On dual generators d xi^a = -1/2 sum c^a_bc xi^b xi^c, which over ordered
    pairs b < c is -sum c^a_bc xi^b ^ xi^c; ``model.derivation_nums`` applies
    its table to the numerators.  With ``plus``, only ``plus_component(m,
    ce_differential(m, form), plus)`` is built.
    """
    den, d = m.dual_d()
    return _form(derivation_nums(m, d, form.nums, plus), form.den * den, form.tau)


def plus_component(m: LieModel, form: Form, r: int) -> Form:
    return _form({mask: n for mask, n in form.nums.items() if plus_count(m, mask) == r},
                 form.den, form.tau)


def quotient_d(m: LieModel, form: Form, grade: Grade) -> Form:
    """Differential induced on the quotient of the plus-count filtration.

    The representative of a class at grade (p,q,r) is its plus-count-r
    component; the induced differential keeps the plus-count r+1 part of the
    full Chevalley-Eilenberg differential.  The declared grade is part of the
    meaning: the same form may represent classes at several grades (the minus
    count only bounds p from above), and the grade names which quotient the
    class lives in even though the computation depends only on r.
    """
    if not is_at_grade(m, form, grade):
        raise GradeError(f"form is not at grade {grade.as_tuple()}")
    return ce_differential(m, form, grade.r + 1)


# -- invariant subspaces -------------------------------------------------------


def is_diagonal(table: Derivation) -> bool:
    """Whether the coadjoint ``table`` maps each xi^a to a multiple of itself."""
    return all(image == 1 << a for (a, _), terms in table[0].items() for image, _, _ in terms)


def diagonal_weights(m: LieModel, table: Derivation) -> list[int]:
    """The numerator, over the ``dual_d`` den, of the coefficient of xi^a in
    the image of xi^a under ``table``, for each generator a."""
    groups = table[0]
    return [sum(n for image, _, n in groups.get((a, 0), ()) if image == 1 << a)
            for a in range(m.total)]


def _packed_weights(m: LieModel, torus: list[Derivation], degree: int) -> list[int]:
    """Each dual generator's weights under the diagonal tables, as integer
    numerators over the ``dual_d`` den, packed as sum_i v_i * base**i.
    Packing is linear and, as base > 2 * degree * max|v_i|, a sum of up to
    ``degree`` weights packs to 0 exactly when it is zero."""
    if not all(is_diagonal(table) for table in torus):
        raise ValueError("torus tables must act diagonally")
    cols = [diagonal_weights(m, table) for table in torus]
    base = 2 * degree * max((abs(w) for col in cols for w in col), default=0) + 1
    return [sum(col[g] * base ** i for i, col in enumerate(cols)) for g in range(m.total)]


def monomial_masks(m: LieModel, degree: int, plus: int, min_minus: int = 0,
                   torus: list[Derivation] = ()) -> list[int]:
    """All monomial masks of the stated degree with plus count exactly ``plus``
    and minus count at least ``min_minus``, in canonical order.

    With ``torus``, diagonal coadjoint tables, only masks of total weight
    zero under each are built: plus subsets are grouped by weight and each
    minus/zero subset takes the group that cancels its weight.  Canonical
    order compares the minus/zero bits first, so looping over those subsets
    outside and the plus subsets inside emits it without a sort.
    """
    if plus > m.dims[2] or plus < 0 or degree < plus or min_minus > degree - plus:
        return []
    weight = _packed_weights(m, torus, degree)
    bits = [1 << g for g in range(m.total)]
    lo, nm, k = m.offsets[Part.PLUS], m.dims[0], degree - plus - min_minus
    # combinations of two parallel lists come out in the same order
    by_weight: dict[int, list[int]] = {}
    for pw, pb in zip(combinations(weight[lo:], plus), combinations(bits[lo:], plus)):
        by_weight.setdefault(-sum(pw), []).append(sum(pb))
    masks = []
    # only subsets that meet min_minus: that many from g-, then k more above them
    for hw, hb in zip(combinations(weight[:nm], min_minus), combinations(bits[:nm], min_minus)):
        hs, hm = sum(hw), sum(hb)
        for rw, rb in zip(combinations(weight[hm.bit_length():lo], k),
                          combinations(bits[hm.bit_length():lo], k)):
            for pmask in by_weight.get(hs + sum(rw), ()):
                masks.append(hm | sum(rb) | pmask)
    return masks


def _joint_kernel(m: LieModel, masks: list[int],
                  tables: list[Derivation]) -> list[dict[int, int]]:
    """A basis of the vectors annihilated by every coadjoint table, as
    primitive integer dicts mask -> coefficient.

    Each table's image of a mask is built once, by ``derivation_nums``, in
    numerators over the ``dual_d`` den (a common factor the kernel does not
    see); ``nullspace`` returns each kernel combination in integers, and the
    basis vectors are recombined by it.
    """
    basis: list[dict[int, int]] = [{mask: 1} for mask in masks]
    for table in tables:
        if not basis:
            return []
        memo: dict[int, dict[int, int]] = {}
        images = []
        for v in basis:
            img: dict[int, int] = {}
            for mask, c in v.items():
                im = memo.get(mask)
                if im is None:
                    im = memo[mask] = derivation_nums(m, table, {mask: 1})
                for new_mask, c2 in im.items():
                    img[new_mask] = img.get(new_mask, 0) + c * c2
            images.append(img)
        new_basis = []
        for combo in nullspace(images):
            v: dict[int, int] = {}
            for j, k in combo.items():
                for mask, c in basis[j].items():
                    v[mask] = v.get(mask, 0) + k * c
            g = gcd(*v.values())
            new_basis.append({mask: c // g for mask, c in v.items() if c})
        basis = new_basis
    return basis


def invariant_basis(m: LieModel, degree: int, plus: int, min_minus: int = 0) -> list[Form]:
    """Basis of the constant cochains with the stated monomial constraints that
    are annihilated by the coadjoint action of every g0 generator.

    The diagonal (Cartan) tables act by enumeration: only monomials of
    weight zero under them are built; the others by a joint kernel.

    The result is canonical: each form is a ``row_space_rref`` row of the
    coefficients over the monomial list, divided by its pivot entry.
    """
    tables = [m.coadjoint_table(u) for u in m.part_range(Part.ZERO)]
    masks = monomial_masks(m, degree, plus, min_minus, [t for t in tables if is_diagonal(t)])
    if not masks:
        return []
    vecs = _joint_kernel(m, masks, [t for t in tables if not is_diagonal(t)])
    index = {mask: i for i, mask in enumerate(masks)}
    canon = row_space_rref({index[mask]: c for mask, c in v.items()} for v in vecs)
    return [_form({masks[i]: c for i, c in row.items()}, row[min(row)], 0) for row in canon]
