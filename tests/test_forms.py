import math
import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from cartan_invariants import (Grade, GradeError, Part, ce_differential,
                               foliated_projective, invariant_basis, is_at_grade,
                               monomial_masks, plus_component, projective, quotient_d)
from cartan_invariants.charforms import MatrixForm
from cartan_invariants import forms as forms_module
from cartan_invariants.forms import (Form, _wedge_sums, combination, diagonal_weights,
                                     is_diagonal, mask_bits, parity_above)
from cartan_invariants.model import LieModel, derivation_nums
from conftest import coadjoint
from dense_oracle import fraction_eliminate, oracle_nullspace, span_rref

ALL_MODELS = None


def _random_form(m, rng, degree):
    masks = []
    pool = list(range(m.total))
    for _ in range(rng.randint(1, 4)):
        picks = rng.sample(pool, degree)
        mask = 0
        for g in picks:
            mask |= 1 << g
        masks.append(mask)
    acc = Form.zero()
    for mask in masks:
        acc = acc + Form.monomial(mask, rng.randint(-4, 4))
    return acc


# -- Form arithmetic: one tau exponent and Fraction coefficients ---------------

_TOTAL = projective(2).total
rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
exponents = st.integers(min_value=0, max_value=5)
masks = st.integers(min_value=0, max_value=(1 << _TOTAL) - 1)


def forms(tau=exponents, min_size=0):
    """Random forms over the generators of projective(2), at a random or given
    tau exponent."""
    return st.builds(Form, st.dictionaries(masks, rationals, min_size=min_size, max_size=4),
                     tau)


nonzero_forms = forms(min_size=1).filter(lambda f: not f.is_zero)
monomials = st.builds(Form.monomial, masks, rationals.filter(bool), exponents)
# two forms at one shared exponent, so that they can be added
same_tau_pairs = exponents.flatmap(lambda e: st.tuples(forms(st.just(e)), forms(st.just(e))))


def _fractions_only(f):
    return all(type(c) is F and c for c in f.terms.values())


@given(forms(), forms(), forms())
def test_wedge_associates(a, b, c):
    assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


@given(forms(), same_tau_pairs, rationals)
def test_wedge_bilinear(a, bc, q):
    b, c = bc
    assert a.wedge(b + c) == a.wedge(b) + a.wedge(c)
    assert (b + c).wedge(a) == b.wedge(a) + c.wedge(a)
    assert a.wedge(b.scale(q)) == a.wedge(b).scale(q) == a.scale(q).wedge(b)
    assert _fractions_only(a.wedge(b + c.scale(q)))


@given(monomials, monomials)
def test_wedge_graded_commutative_on_monomials(a, b):
    (ma,), (mb,) = a.terms, b.terms
    sign = (-1) ** (ma.bit_count() * mb.bit_count())
    assert a.wedge(b) == b.wedge(a).scale(sign)


@given(forms(), forms())
def test_wedge_adds_tau_exponents(a, b):
    assert a.wedge(b).tau == a.tau + b.tau
    assert a.tau_shift(2).wedge(b).tau == a.tau + b.tau + 2


@given(forms())
def test_difference_with_itself_is_zero(a):
    assert (a - a).is_zero and a - a == Form.zero()
    assert _fractions_only(a) and _fractions_only(-a)


@given(exponents, exponents, forms())
def test_zero_forms_equal_and_neutral_at_every_exponent(e1, e2, a):
    z1, z2 = Form.zero().tau_shift(e1), Form({}, e2)
    assert z1 == z2 == a.scale(0)
    assert hash(z1) == hash(z2) == hash(Form.zero())
    assert a + z1 == a and z2 + a == a and (a + z1).tau == a.tau


@given(nonzero_forms, nonzero_forms, st.integers(min_value=1, max_value=3))
def test_sum_across_tau_exponents_raises(a, b, k):
    with pytest.raises(ValueError):
        a + b.tau_shift(a.tau - b.tau + k)
    with pytest.raises(ValueError):
        a.tau_shift(k) - b.tau_shift(a.tau - b.tau)


def test_wedge_square_of_one_form_vanishes():
    xi = Form.dual(0) + Form.dual(2).scale(3)
    assert xi.wedge(xi).is_zero


def test_odd_forms_anticommute():
    a, b = Form.dual(0), Form.dual(2)
    assert a.wedge(b) == b.wedge(a).scale(-1)


def test_even_forms_commute():
    a = Form.dual(0).wedge(Form.dual(1))
    b = Form.dual(2).wedge(Form.dual(3))
    assert a.wedge(b) == b.wedge(a)


def test_wedge_associative_random():
    rng = random.Random(11)
    m = projective(2)
    for _ in range(30):
        a = _random_form(m, rng, rng.randint(1, 2))
        b = _random_form(m, rng, rng.randint(1, 2))
        c = _random_form(m, rng, rng.randint(1, 2))
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


def test_parity_above_matches_bruteforce():
    rng = random.Random(3)
    for _ in range(300):
        width = rng.randint(0, 70)
        a = rng.getrandbits(width) if width else 0
        b = rng.getrandbits(70) & ~a
        p = parity_above(a)
        for y in range(72):
            assert (p >> y) & 1 == sum(1 for x in mask_bits(a) if x > y) % 2
        inversions = sum(1 for x in mask_bits(a) for y in mask_bits(b) if x > y)
        assert (p & b).bit_count() % 2 == inversions % 2


def _reference_wedge(a, b):
    """The wedge Fraction by Fraction, each sign from the pairs it inverts."""
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            if m1 & m2:
                continue
            inversions = sum(1 for x in mask_bits(m1) for y in mask_bits(m2) if x > y)
            out[m1 | m2] = out.get(m1 | m2, F(0)) + (-1) ** inversions * c1 * c2
    return {m: c for m, c in out.items() if c}


def _random_rational_form(rng, width, tau):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        mask = 0
        for g in rng.sample(range(width), rng.randint(0, 4)):
            mask |= 1 << g
        terms[mask] = F(rng.randint(-30, 30), rng.randint(1, 12))
    return Form(terms, tau)


def test_wedge_matches_fraction_reference():
    rng = random.Random(5)
    for _ in range(400):
        width = rng.choice((6, 12, 70))
        a = _random_rational_form(rng, width, rng.randint(0, 3))
        b = _random_rational_form(rng, width, rng.randint(0, 3))
        got = a.wedge(b)
        assert got.terms == _reference_wedge(a, b)
        assert all(type(c) is F for c in got.terms.values())
        if got.terms:
            assert got.tau == a.tau + b.tau


def _reference_sum(pairs):
    out = {}
    for a, b in pairs:
        for mask, c in _reference_wedge(a, b).items():
            out[mask] = out.get(mask, F(0)) + c
    return {mask: c for mask, c in out.items() if c}


def _reference_combination(terms):
    out = {}
    for c, f in terms:
        for mask, x in f.terms.items():
            out[mask] = out.get(mask, F(0)) + c * x
    return {mask: c for mask, c in out.items() if c}


def test_sums_match_fraction_reference():
    """``combination``, ``+`` and ``-`` against the sum Fraction by Fraction,
    with int, Fraction and zero coefficients and zero forms among the terms."""
    rng = random.Random(31)
    for _ in range(300):
        width, tau = rng.choice((6, 12, 70)), rng.randint(0, 3)
        fs = [_random_rational_form(rng, width, tau) for _ in range(rng.randint(2, 6))]
        coeffs = [rng.choice((0, rng.randint(-5, 5), F(rng.randint(-30, 30), rng.randint(1, 12))))
                  for _ in fs]
        got = combination(zip(coeffs, fs))
        assert got.terms == _reference_combination(list(zip(coeffs, fs)))
        assert got.tau == tau and all(type(c) is F for c in got.terms.values())
        a, b = fs[:2]
        assert (a + b).terms == _reference_combination([(1, a), (1, b)])
        assert (a - b).terms == _reference_combination([(1, a), (-1, b)])
        assert (-a).terms == _reference_combination([(-1, a)])


def test_an_all_zero_sum_keeps_the_exponent_of_its_first_term():
    """Every sum of forms follows one rule: its nonzero terms share one
    exponent, and a sum with none is the zero form at its first term's."""
    a = Form({0b11: F(2, 3), 0b101: -1}, 2)
    z, w = a.scale(0), Form({}, 2)
    sums = [combination([(1, z), (F(1, 2), w)]), combination([(0, a), (3, z)]),
            combination([(0, a), (F(-2, 7), a.scale(0))]), z + w, z - w, -z,
            *_wedge_sums([[(Form.unit(), z), (Form.unit().scale(0), a)],
                          [(z.tau_shift(-1), a.tau_shift(-1))]]),
            MatrixForm([[z, a], [a, w]]).trace(), MatrixForm([[w]]).trace()]
    assert [f.tau for f in sums] == [2] * len(sums) and all(f.is_zero for f in sums)
    # a zero term at another exponent is neutral; nonzero terms must agree
    assert combination([(1, a), (1, a.tau_shift(1).scale(0)), (0, a.tau_shift(3))]) == a
    assert combination([(0, a.tau_shift(1)), (1, a)]).tau == 2
    with pytest.raises(ValueError):
        combination([(1, a), (F(1, 2), a.tau_shift(1))])
    with pytest.raises(ValueError):
        MatrixForm([[a, z], [z, a.tau_shift(1)]]).trace()


def test_kept_views_serve_reused_operands():
    """Forms reused many times as left and right operands of the wedge kernel,
    through ``_wedge_sums``, ``matwedge`` and ``trace_wedge``, against the
    Fraction reference; some share one numerator dict through ``tau_shift``."""
    rng = random.Random(29)
    for _ in range(25):
        width = rng.choice((6, 12, 70))
        base = [_random_rational_form(rng, width, 0) for _ in range(5)]
        shifted = [f.tau_shift(1) for f in base[:3]]
        for _ in range(12):
            a, b = rng.choice(base), rng.choice(base + shifted)
            assert a.wedge(b).terms == _reference_wedge(a, b)
            assert b.wedge(a).terms == _reference_wedge(b, a)
            pairs = [(rng.choice(base), rng.choice(shifted)) for _ in range(3)]
            sums = [pairs, [(a, a), (b, a), (a, b)] if b.tau == 0 else [(b, b)]]
            got = _wedge_sums(sums)
            assert [f.terms for f in got] == [_reference_sum(p) for p in sums]
            right = rng.choice((base, shifted))
            x = [[rng.choice(base) for _ in range(3)] for _ in range(2)]
            y = [[rng.choice(right) for _ in range(2)] for _ in range(3)]
            prod = MatrixForm(x).matwedge(MatrixForm(y))
            assert [[f.terms for f in row] for row in prod.grid] == [
                [_reference_sum([(x[i][k], y[k][j]) for k in range(3)]) for j in range(2)]
                for i in range(2)]
            assert MatrixForm(x).trace_wedge(MatrixForm(y)).terms == _reference_sum(
                [(x[i][k], y[k][i]) for i in range(2) for k in range(3)])
        for f in base + shifted:
            d = math.lcm(*(c.denominator for c in f.terms.values()))
            assert f.den == d and f.nums == {mask: int(c * d) for mask, c in f.terms.items()}
            assert f.left_view() == [(mask, parity_above(mask), n) for mask, n in f.nums.items()]
            assert f.left_view() is f.left_view()
        for f, g in zip(base, shifted):
            assert g.nums is f.nums and g.den == f.den


def _assert_canonical(f):
    """One positive integer denominator and nonzero integer numerators in
    lowest terms, denominator 1 for the zero form; ``terms`` reads them as
    reduced Fractions."""
    assert type(f.den) is int and f.den > 0
    assert all(type(n) is int and n for n in f.nums.values())
    assert math.gcd(f.den, *f.nums.values()) == 1
    assert f.nums or f.den == 1
    assert f.terms == {mask: F(n, f.den) for mask, n in f.nums.items()}
    assert all(type(c) is F and math.gcd(c.numerator, c.denominator) == 1
               for c in f.terms.values())


def test_every_operation_returns_the_canonical_form():
    import cartan_invariants as ci
    rng = random.Random(41)
    models = [ci.projective(2), _rescaled_zero_block(ci.projective(2))]
    checked = 0
    for m in models:
        for _ in range(60):
            a = _random_rational_form(rng, m.total, rng.randint(0, 2))
            b = _random_rational_form(rng, m.total, a.tau)
            q = F(rng.randint(-6, 6), rng.randint(1, 6))
            results = [a + b, a - b, b - b, -a, a.scale(rng.randint(-4, 4)), a.scale(q),
                       a.scale(0), a.tau_shift(2), a.wedge(b),
                       *_wedge_sums([[(a, b), (b, a)], [(a, a.scale(q))], []]),
                       combination([(rng.randint(-4, 4), a), (q, b), (0, a), (3, b.scale(0)),
                                    (F(1, 3), Form.zero().tau_shift(a.tau))]),
                       combination([(0, a), (q, b.scale(0))]), combination([]),
                       MatrixForm([[a, b], [b, b.scale(q)]]).trace(),
                       MatrixForm([[a.scale(0), a], [b, Form.zero()]]).trace(),
                       ce_differential(m, a), coadjoint(m, rng.randrange(m.total), a)]
            results += [ce_differential(m, a, r) for r in range(m.dims[2] + 2)]
            results += [plus_component(m, a, r) for r in range(m.dims[2] + 1)]
            for f in results:
                _assert_canonical(f)
            checked += len(results)
            # the same value built another way is equal and hashes alike
            for f, g in [(a + b - b, a), (a.scale(q).scale(1 / q) if q else a, a),
                         (a.scale(2).scale(F(1, 2)), a), (a.wedge(b.scale(q)), a.wedge(b).scale(q)),
                         (ce_differential(m, a.scale(6)), ce_differential(m, a).scale(6)),
                         (combination([(q, a), (-1, b)]), a.scale(q) - b),
                         (MatrixForm([[a, a], [b, b]]).trace(), a + b)]:
                assert f == g and hash(f) == hash(g) and (f.den, f.nums) == (g.den, g.nums)
            # a different value is a different form, also when only den differs
            if a.nums:
                assert a != a.scale(2) and a != a.scale(F(1, 3)) and a != a.tau_shift(1)
            # zero forms at different exponents are equal
            z = (a - a).tau_shift(rng.randint(1, 4))
            assert z == Form.zero() == b.scale(0) and hash(z) == hash(Form.zero())
            assert z.den == 1 and not z.nums
    assert checked > 2000
    mask = 0b101
    half = Form({mask: 1}).scale(F(1, 2))
    assert Form({mask: F(2, 4)}) == half and hash(Form({mask: F(2, 4)})) == hash(half)
    assert half != Form({mask: 1}) and half.nums == Form({mask: 1}).nums
    assert (half.den, half.nums) == (2, {mask: 1})
    assert Form({mask: F(6, 4), 0b11: 3}).nums == {mask: 3, 0b11: 6}
    assert Form({mask: F(6, 4), 0b11: 3}).den == 2


# -- the derivations on integer numerators against Fraction references --------


def _placed(seq):
    """(mask, sign) of the wedge of the dual generators in ``seq``, in that
    order, or None when one repeats; the sign counts the inversions."""
    if len(set(seq)) < len(seq):
        return None
    inversions = sum(1 for i, x in enumerate(seq) for y in seq[i + 1:] if x > y)
    return sum(1 << g for g in seq), (-1) ** inversions


def _accumulate(out, placed, c):
    if placed:
        mask, sign = placed
        out[mask] = out.get(mask, F(0)) + sign * c


def _reference_differential(m, terms):
    """The CE differential Fraction by Fraction: d xi^a = -sum c^a_bc xi^b xi^c
    over b < c put in place of factor t, with sign (-1)^t."""
    out = {}
    for mask, coeff in terms.items():
        bits = mask_bits(mask)
        for t, a in enumerate(bits):
            for (i, j), comp in m.brackets.items():
                if a in comp:
                    _accumulate(out, _placed(bits[:t] + [i, j] + bits[t + 1:]),
                                (-1) ** t * -comp[a] * coeff)
    return {k: v for k, v in out.items() if v}


def _coadjoint_table(m, u):
    """For generator u, the map xi^a -> sum_y table[a][y] xi^y on dual
    generators, read off the brackets: (u . xi)(y) = -xi([u, y])."""
    table = [{} for _ in range(m.total)]
    for y in range(m.total):
        for a, c in m.bracket_basis(u, y).items():
            table[a][y] = -c
    return table


def _reference_action(table, terms):
    """The coadjoint derivation of a ``_coadjoint_table`` Fraction by
    Fraction: u . xi^a = sum_y table[a][y] xi^y put in place of each factor."""
    out = {}
    for mask, coeff in terms.items():
        bits = mask_bits(mask)
        for t, a in enumerate(bits):
            for y, c in table[a].items():
                _accumulate(out, _placed(bits[:t] + [y] + bits[t + 1:]), c * coeff)
    return {k: v for k, v in out.items() if v}


def _models_of_every_family():
    """One model of each family, then one with fractional structure constants."""
    import cartan_invariants as ci
    models = [ci.projective(2), ci.grassmannian(2, 2), ci.lagrangian_grassmannian(2),
              ci.conformal(3), ci.foliated_projective(1, 1), ci.split_projective(1, 2),
              ci.g2_flag()]
    assert len({m.meta["family"] for m in models}) == len(ci.FAMILIES)
    return models + [_rescaled_zero_block(ci.projective(2))]


def test_derivations_match_fraction_references():
    models = _models_of_every_family() + [_coprime_weight_model()]
    fractional = models[-2]
    # fractional structure constants: the tables need their LCMs
    den = fractional.dual_d()[0]
    assert den > 1
    assert any(n % den for u in range(fractional.total)
               for terms in fractional.coadjoint_table(u)[0].values() for _, _, n in terms)
    rng = random.Random(23)
    checked = 0
    for m in models:
        us = list(m.part_range(Part.ZERO)) + [0, m.total - 1]
        den = m.dual_d()[0]
        ops = [(u, _coadjoint_table(m, u)) for u in us]
        for _ in range(40):
            f = _random_rational_form(rng, m.total, rng.randint(0, 3))
            d = ce_differential(m, f)
            assert d.terms == _reference_differential(m, f.terms)
            assert d.tau == f.tau and _fractions_only(d)
            for r in range(-1, m.dims[2] + 2):
                part = ce_differential(m, f, r)
                assert part == plus_component(m, d, r) and part.tau == f.tau
                assert part.terms == {mask: c for mask, c in d.terms.items()
                                      if (mask & m.plus_mask).bit_count() == r}
            for u, table in ops:
                g = coadjoint(m, u, f)
                assert g.terms == _reference_action(table, f.terms)
                assert g.tau == f.tau and _fractions_only(g)
                for mask in f.terms:
                    image = derivation_nums(m, m.coadjoint_table(u), {mask: 1})
                    assert all(type(n) is int and n for n in image.values())
                    assert {k: F(n, den) for k, n in image.items()} == _reference_action(
                        table, {mask: F(1)})
            checked += 1
    assert checked >= 300


def _interior(u, form):
    """i_u of a form: the factor xi^u is taken out of each monomial holding
    it, with the sign (-1)^(factors below u)."""
    out = {}
    for mask, c in form.terms.items():
        if mask >> u & 1:
            out[mask ^ 1 << u] = (-1) ** (mask & ((1 << u) - 1)).bit_count() * c
    return out


def test_coadjoint_action_is_cartans_formula_on_dual_generators():
    """u . xi^a = i_u d xi^a for every generator u and a, on every family and
    a model with fractional structure constants."""
    checked = 0
    for m in _models_of_every_family():
        for u in range(m.total):
            for a in range(m.total):
                xi = Form.dual(a)
                assert coadjoint(m, u, xi).terms == _interior(u, ce_differential(m, xi))
                checked += bool(coadjoint(m, u, xi).nums)
    assert checked > 400


def test_restricted_coadjoint_image_is_the_filtered_full_image():
    """derivation_nums on a coadjoint table with ``plus`` r is the full image
    cut to plus count r, for u inside and outside g0; the cut keeps some
    terms and drops others in over 100 cases."""
    rng = random.Random(31)
    cases = cut = 0
    for m in _models_of_every_family():
        for u in list(m.part_range(Part.ZERO)) + [0, m.total - 1]:
            table = m.coadjoint_table(u)
            for _ in range(15):
                nums = _random_rational_form(rng, m.total, 0).nums
                full = derivation_nums(m, table, nums)
                for r in range(-1, m.dims[2] + 2):
                    got = derivation_nums(m, table, nums, r)
                    assert got == {k: c for k, c in full.items()
                                   if (k & m.plus_mask).bit_count() == r}
                    cut += 0 < len(got) < len(full)
                cases += bool(full)
    assert cases > 500 and cut > 100


def test_coadjoint_tables_are_built_per_part_on_first_use():
    """invariant_basis leaves g0's tables alone on the model; a model that
    builds g+'s first holds those alone, and its g0 tables then give the
    images of a model that built g0's first, full and restricted, on seeded
    random vectors, and the Fraction reference's."""
    import cartan_invariants as ci
    m = ci.grassmannian(3, 3)
    assert invariant_basis(m, 6, 2)
    assert set(m._coadjoint) == set(m.part_range(Part.ZERO))
    plus_first, zero_first = ci.grassmannian(3, 3), ci.grassmannian(3, 3)
    plus_first.coadjoint_table(plus_first.total - 1)
    assert set(plus_first._coadjoint) == set(plus_first.part_range(Part.PLUS))
    den = m.dual_d()[0]
    rng = random.Random(26)
    images = 0
    for u in m.part_range(Part.ZERO):
        table = _coadjoint_table(m, u)
        for _ in range(10):
            nums = _random_rational_form(rng, m.total, 0).nums
            full = derivation_nums(plus_first, plus_first.coadjoint_table(u), nums)
            assert full == {k: c * den for k, c in _reference_action(table, nums).items()}
            for r in (None, 0, 1, 2):
                assert (derivation_nums(plus_first, plus_first.coadjoint_table(u), nums, r)
                        == derivation_nums(zero_first, zero_first.coadjoint_table(u), nums, r))
            images += bool(full)
    assert images > 50
    assert set(plus_first._coadjoint) == set(m.part_range(Part.ZERO)) | set(
        m.part_range(Part.PLUS))


def test_ce_differential_sl2_examples(sl2):
    omega, eta, chi = (Form.dual(i) for i in range(3))
    assert ce_differential(sl2, eta) == chi.wedge(omega).scale(-1)
    assert ce_differential(sl2, omega) == eta.wedge(omega).scale(2)


def test_leibniz_rule_random():
    rng = random.Random(17)
    m = projective(2)
    for _ in range(25):
        da = rng.randint(1, 2)
        a = _random_form(m, rng, da)
        b = _random_form(m, rng, rng.randint(1, 2))
        lhs = ce_differential(m, a.wedge(b))
        rhs = ce_differential(m, a).wedge(b) + (
            a.wedge(ce_differential(m, b)).scale((-1) ** da)
        )
        assert lhs == rhs


def test_d_squared_zero_generators_all_models():
    import cartan_invariants as ci
    models = [ci.projective(2), ci.grassmannian(2, 2), ci.conformal(3),
              ci.foliated_projective(2, 2), ci.split_projective(1, 1),
              ci.lagrangian_grassmannian(2), ci.g2_flag()]
    for m in models:
        for g in range(m.total):
            assert ce_differential(m, ce_differential(m, Form.dual(g))).is_zero


def test_quotient_d_sl2_examples(sl2):
    omega, eta, chi = (Form.dual(i) for i in range(3))
    # d(eta) = -chi^omega has plus count 1: survives at grade (0,1,0)
    assert quotient_d(sl2, eta, Grade(0, 1, 0)) == chi.wedge(omega).scale(-1)
    # d(omega) = 2 eta^omega has plus count 0: dies at grade (1,0,0)
    assert quotient_d(sl2, omega, Grade(1, 0, 0)).is_zero


def test_quotient_d_grade_checked(sl2):
    chi = Form.dual(2)  # plus count 1, so not at any grade with r = 0
    with pytest.raises(GradeError):
        quotient_d(sl2, chi, Grade(1, 0, 0))
    omega = Form.dual(0)  # minus count 1 < p = 1+... degree mismatch too
    with pytest.raises(GradeError):
        quotient_d(sl2, omega, Grade(1, 1, 0))
    assert not is_at_grade(sl2, chi, Grade(0, 1, 0))
    # the minus count is a lower bound: omega sits at (1,0,0) and (0,1,0)
    assert is_at_grade(sl2, omega, Grade(1, 0, 0))
    assert is_at_grade(sl2, omega, Grade(0, 1, 0))


def test_quotient_d_top_plus_count_vanishes():
    m = projective(2)
    for mask in monomial_masks(m, 3, m.dims[2], 0):
        xi = Form.monomial(mask)
        p = 3 - m.dims[2] - (mask & m.zero_mask).bit_count()
        grade = Grade((mask & m.minus_mask).bit_count(), 3 - m.dims[2] -
                      (mask & m.minus_mask).bit_count(), m.dims[2])
        # simpler: declare the monomial's own counts
        grade = Grade((mask & m.minus_mask).bit_count(),
                      (mask & m.zero_mask).bit_count(), m.dims[2])
        assert quotient_d(m, xi, grade).is_zero


def test_quotient_d_squared_zero_random_grades():
    import cartan_invariants as ci
    rng = random.Random(23)
    for m in (ci.projective(2), ci.foliated_projective(1, 1), ci.g2_flag()):
        for _ in range(40):
            deg = rng.randint(1, min(5, m.total - 1))
            r = rng.randint(0, min(deg, m.dims[2]))
            masks = monomial_masks(m, deg, r, 0)
            if not masks:
                continue
            picks = rng.sample(masks, min(len(masks), 3))
            xi = Form.zero()
            for mask in picks:
                xi = xi + Form.monomial(mask, rng.randint(-3, 3))
            if xi.is_zero:
                continue
            p = min((mask & m.minus_mask).bit_count() for mask in xi.terms)
            grade = Grade(p, deg - p - r, r)
            once = quotient_d(m, xi, grade)
            if once.is_zero:
                continue
            assert quotient_d(m, once, grade.raised()).is_zero


def test_quotient_d_equivariant():
    m = projective(2)
    rng = random.Random(7)
    for _ in range(20):
        masks = monomial_masks(m, 2, 1, 0)
        xi = Form.monomial(rng.choice(masks), rng.randint(1, 3))
        grade = Grade(min((mask & m.minus_mask).bit_count() for mask in xi.terms),
                      0, 1)
        grade = Grade(grade.p, 2 - grade.p - 1, 1)
        for u in m.part_range(Part.ZERO):
            assert (coadjoint(m, u, quotient_d(m, xi, grade))
                    == quotient_d(m, coadjoint(m, u, xi), grade))


def test_invariant_basis_projective1():
    m = projective(1)
    (b,) = invariant_basis(m, 2, 1, 1)
    assert b == Form.dual(0).wedge(Form.dual(2))  # w1 ^ u1
    (b,) = invariant_basis(m, 1, 0, 0)
    assert b == Form.dual(1)
    (b,) = invariant_basis(m, 0, 0, 0)
    assert b == Form.unit()


def test_closedness_criterion_at_plus_zero_matches_gplus_invariance():
    # at plus count 0, quotient-closed iff annihilated by every g+ coadjoint
    import cartan_invariants as ci
    for m in (ci.projective(2), ci.foliated_projective(1, 1)):
        for degree, p in [(1, 1), (2, 1), (2, 2)]:
            masks = monomial_masks(m, degree, 0, p)
            if not masks:
                continue
            dcols = [plus_component(m, ce_differential(m, Form.monomial(mask)), 1)
                     for mask in masks]
            ocols = [[coadjoint(m, u, Form.monomial(mask)) for u in m.part_range(Part.PLUS)]
                     for mask in masks]

            def kernel(column_forms):
                support = sorted({mk for forms in column_forms for f in forms
                                  for mk in f.terms})
                if not support:
                    return span_rref([tuple(F(int(i == j)) for j in range(len(masks)))
                                      for i in range(len(masks))])
                index = {mk: i for i, mk in enumerate(support)}
                rows = [[F(0)] * len(masks)
                        for _ in range(len(support) * len(column_forms[0]))]
                for j, forms in enumerate(column_forms):
                    for t, f in enumerate(forms):
                        for mk, cc in f.terms.items():
                            rows[t * len(support) + index[mk]][j] = cc
                return span_rref(oracle_nullspace(rows, len(masks)))

            assert kernel([[c] for c in dcols]) == kernel(ocols)


def test_matrix_cochain_quotient_is_componentwise():
    # the covariant term rho(omega0) ^ xi cannot raise the plus count, so the
    # induced differential acts on matrix cochains entry by entry
    from cartan_invariants.charforms import atiyah_form, omega0_matrix
    m = projective(2)
    rep = m.reps["tangent"]
    a = atiyah_form(m, rep)
    mm = omega0_matrix(m, rep)
    cov = mm.matwedge(a)
    for row in cov.grid:
        for entry in row:
            assert plus_component(m, entry, 2).is_zero
    cov0 = mm.matwedge(mm)
    for row in cov0.grid:
        for entry in row:
            assert plus_component(m, entry, 1).is_zero


def test_form_json_sorted_and_tau_split():
    m = projective(1)
    base = Form.dual(0).wedge(Form.dual(2)).scale(F(3, 2)) + Form.dual(1).scale(-1)
    f = base.tau_shift(2)
    assert f.tau == 2 and all(type(c) is F for c in f.terms.values())
    assert f.to_json(m) == [[["z1"], 2, "-1"], [["w1", "u1"], 2, "3/2"]]
    assert f.coefficients(2) == {0b010: F(-1), 0b101: F(3, 2)}
    with pytest.raises(AssertionError):
        f.coefficients(0)
    assert f != base and f.tau_shift(-2) == base


# -- the enumeration by Cartan weight against the plain enumeration -----------


def _plain_masks(m, degree, plus, min_minus):
    """Every mask of the trigrade, globally sorted: the enumeration
    invariant_basis used before it enumerated by weight."""
    if plus > m.dims[2] or plus < 0 or degree < plus:
        return []
    minus_zero = list(m.part_range(Part.MINUS)) + list(m.part_range(Part.ZERO))
    masks = []
    for pc in combinations(m.part_range(Part.PLUS), plus):
        for rest in combinations(minus_zero, degree - plus):
            if sum(g < m.dims[0] for g in rest) >= min_minus:
                masks.append(sum(1 << g for g in pc + rest))
    return sorted(masks, key=lambda mask: tuple(mask_bits(mask)))


def _fraction_joint_kernel(masks, tables):
    """The joint kernel as it was, all in Fractions: vectors (mask -> coeff
    dicts) annihilated by the coadjoint operator of every table, each image
    taken from the reference action."""
    basis = [{mask: F(1)} for mask in masks]
    for table in tables:
        if not basis:
            return []
        images = []
        for v in basis:
            img = {}
            for mask, c in v.items():
                for new_mask, c2 in _reference_action(table, {mask: F(1)}).items():
                    img[new_mask] = img.get(new_mask, F(0)) + c * c2
            images.append(img)
        rows = {}
        for j, img in enumerate(images):
            for key, c in img.items():
                if c:
                    rows.setdefault(key, {})[j] = c
        reduced = fraction_eliminate(rows.values())
        combos = []
        for f in range(len(basis)):
            if f not in reduced:
                combo = {f: F(1)}
                for p, row in reduced.items():
                    if f in row:
                        combo[p] = -row[f]
                combos.append(combo)
        new_basis = []
        for combo in combos:
            v = {}
            for j, coeff in combo.items():
                for mask, c in basis[j].items():
                    v[mask] = v.get(mask, F(0)) + coeff * c
            v = {k: c for k, c in v.items() if c}
            if v:
                new_basis.append(v)
        basis = new_basis
    return basis


def _oracle_basis(m, degree, plus, min_minus):
    """invariant_basis as it was: plain masks, a Fraction weight filter per
    diagonal operator, the Fraction kernel of the others, then the canonical
    rref."""
    tables = [_coadjoint_table(m, u) for u in m.part_range(Part.ZERO)]
    diagonal = [t for t in tables if all(set(row) <= {a} for a, row in enumerate(t))]
    masks = [mask for mask in _plain_masks(m, degree, plus, min_minus)
             if all(sum((t[a].get(a, F(0)) for a in mask_bits(mask)), F(0)) == 0
                    for t in diagonal)]
    vecs = _fraction_joint_kernel(masks, [t for t in tables if t not in diagonal])
    index = {mask: i for i, mask in enumerate(masks)}
    canon = fraction_eliminate({index[mask]: c for mask, c in v.items()} for v in vecs)
    return [{masks[i]: c for i, c in canon[p].items()} for p in sorted(canon)]


def _rotation_model():
    """g0 = span{r} rotating g- = span{x1, x2}; r acts on no basis vector
    diagonally, so no weight filter applies."""
    return LieModel((2, 1, 0), ["x1", "x2", "r"], {(0, 2): {1: F(-1)}, (1, 2): {0: F(1)}})


def _rescaled_zero_block(m):
    """The same algebra with g0 generator i scaled by 1/(i+2), so the Cartan
    weights become fractions, with a different denominator per operator."""
    s = [F(1)] * m.total
    for i, g in enumerate(m.part_range(Part.ZERO)):
        s[g] = F(1, i + 2)
    brackets = {(i, j): {k: c * s[i] * s[j] / s[k] for k, c in comp.items()}
                for (i, j), comp in m.brackets.items()}
    return LieModel(m.dims, m.names, brackets)


def _coprime_weight_model():
    """g- = {x1, x2}, g0 = {h}, g+ = {y1, y2} with [h, x_i] = w_i x_i and
    [h, y_i] = -w_i y_i for w = (1/2, 1/3), all other brackets zero: one
    diagonal operator whose weights have coprime denominators, so only their
    LCM scales them to integers."""
    w = (F(1, 2), F(1, 3))
    return LieModel((2, 1, 2), ["x1", "x2", "h", "y1", "y2"],
                    {(0, 2): {0: -w[0]}, (1, 2): {1: -w[1]},
                     (2, 3): {3: -w[0]}, (2, 4): {4: -w[1]}})


def test_invariant_basis_matches_plain_enumeration():
    import cartan_invariants as ci
    models = [ci.projective(2), ci.projective(3), ci.grassmannian(2, 2),
              ci.lagrangian_grassmannian(2), ci.conformal(3), ci.foliated_projective(1, 1),
              ci.split_projective(1, 2), ci.g2_flag()]
    assert len({m.meta["family"] for m in models}) == len(ci.FAMILIES)
    rotation, fractional = _rotation_model(), _rescaled_zero_block(ci.projective(2))
    assert any(F(diagonal_weights(fractional, fractional.coadjoint_table(u))[0],
                 fractional.dual_d()[0]).denominator > 1
               for u in fractional.part_range(Part.ZERO))
    coprime = _coprime_weight_model()
    (h,) = (coprime.coadjoint_table(u) for u in coprime.part_range(Part.ZERO))
    assert is_diagonal(h)
    assert {F(diagonal_weights(coprime, h)[a], coprime.dual_d()[0]).denominator
            for a in (0, 1)} == {2, 3}
    models += [rotation, fractional, coprime]
    cases = 0
    for m in models:
        den = m.dual_d()[0]
        diagonal = [t for t in (m.coadjoint_table(u) for u in m.part_range(Part.ZERO))
                    if is_diagonal(t)]
        weights = [diagonal_weights(m, t) for t in diagonal]
        assert bool(diagonal) == (m is not rotation)
        for degree in range(6):
            for plus in range(min(degree, m.dims[2]) + 2):
                # min_minus == degree - plus: every minus/zero generator from g-
                for min_minus in sorted({0, 1, 2, max(degree - plus, 0)}):
                    plain = _plain_masks(m, degree, plus, min_minus)
                    assert monomial_masks(m, degree, plus, min_minus) == plain
                    zero_weight = monomial_masks(m, degree, plus, min_minus, diagonal)
                    assert zero_weight == [
                        mask for mask in plain
                        if all(sum(F(w[a], den) for a in mask_bits(mask)) == 0
                               for w in weights)]
                    got = [{mask: c for mask, c in b.terms.items()}
                           for b in invariant_basis(m, degree, plus, min_minus)]
                    assert got == _oracle_basis(m, degree, plus, min_minus), (
                        m.meta.get("family"), degree, plus, min_minus)
                    cases += 1
    assert cases > 500
    (b,) = invariant_basis(rotation, 2, 0, 0)
    assert b == Form.dual(0).wedge(Form.dual(1))


def test_monomial_masks_walks_only_subsets_meeting_min_minus(monkeypatch):
    """grassmannian(3,3) at (7, 3, 4) keeps 126 of the C(26, 4) minus/zero
    subsets; each kept one is drawn once (twice over the parallel weight and
    bit lists), and so is each of its min_minus g- heads, never the rest."""
    import cartan_invariants as ci
    m = ci.grassmannian(3, 3)
    drawn = []

    def counting(pool, k):
        for subset in combinations(pool, k):
            drawn.append(subset)
            yield subset

    monkeypatch.setattr(forms_module, "combinations", counting)
    masks = monomial_masks(m, 7, 3, 4)
    plus_subsets = math.comb(m.dims[2], 3)
    kept = len(masks) // plus_subsets
    assert kept == math.comb(m.dims[0], 4) == 126
    assert len(drawn) == 2 * (plus_subsets + math.comb(m.dims[0], 4) + kept)
    assert masks == _plain_masks(m, 7, 3, 4)


def test_derivation_nums_matches_the_fraction_reference():
    """derivation_nums of d on an integer vector is the Fraction reference
    differential over the dual_d den, restricted to the plus count when one
    is given: on every family and a model with fractional structure
    constants, for unit and multi-mask vectors of masks at several (degree,
    plus, min_minus), and target plus counts that rise by 0, 1 or 2, or none."""
    import cartan_invariants as ci
    models = [ci.projective(3), ci.grassmannian(2, 2), ci.lagrangian_grassmannian(2),
              ci.conformal(3), ci.foliated_projective(1, 1), ci.split_projective(1, 2),
              ci.g2_flag(), _rescaled_zero_block(ci.projective(2))]
    assert len({m.meta.get("family") for m in models[:-1]}) == len(ci.FAMILIES)
    assert models[-1].dual_d()[0] > 1
    rng = random.Random(20)
    vectors = 0
    for m in models:
        den = m.dual_d()[0]
        for degree in range(1, 5):
            for plus in range(min(degree, m.dims[2]) + 1):
                for min_minus in sorted({0, 1, degree - plus}):
                    masks = monomial_masks(m, degree, plus, min_minus)
                    sums = [{mask: rng.choice([-3, -1, 2, 5]) for mask in
                             rng.sample(masks, min(len(masks), rng.randint(2, 4)))}
                            for _ in range(3)] if masks else []
                    for nums in [{mask: 1} for mask in masks] + sums:
                        full = _reference_differential(m, nums)
                        for target in (plus, plus + 1, plus + 2, None):
                            got = derivation_nums(m, m.dual_d()[1], nums, target)
                            assert got == {k: c * den for k, c in full.items()
                                           if target is None or (k & m.plus_mask).bit_count()
                                           == target}
                            assert all(type(n) is int for n in got.values())
                        vectors += 1
    assert vectors > 10_000


def test_monomial_masks_rejects_a_non_diagonal_torus():
    m = projective(2)
    tables = [m.coadjoint_table(u) for u in m.part_range(Part.ZERO)]
    with pytest.raises(ValueError):
        monomial_masks(m, 2, 1, 0, [t for t in tables if not is_diagonal(t)])
