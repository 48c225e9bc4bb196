import math
import random
from fractions import Fraction as F
from itertools import permutations

import pytest

import cartan_invariants as ci
from cartan_invariants import Part
from cartan_invariants.charforms import MatrixForm, _koszul_sign, _polarized
from cartan_invariants.forms import (Form, Grade, ce_differential, is_at_grade,
                                     minus_count, plus_count)
from cartan_invariants.invariants import InvPoly, parse_poly
from leverrier_oracle import leverrier_chern


def test_atiyah_projective_line():
    m = ci.projective(1)
    a = ci.atiyah_form(m, m.reps["tangent"])
    chi, omega = Form.dual(2), Form.dual(0)
    assert a.grid == [[chi.wedge(omega).scale(2)]]


def test_atiyah_projective_pattern():
    # a^i_j = delta^i_j sum_k chi_k ^ w^k + chi_j ^ w^i
    for n in (2, 3):
        m = ci.projective(n)
        a = ci.atiyah_form(m, m.reps["tangent"])
        trace_form = Form.zero()
        for k in range(n):
            trace_form = trace_form + Form.dual(m.gid(Part.PLUS, k)).wedge(
                Form.dual(m.gid(Part.MINUS, k)))
        for i in range(n):
            for j in range(n):
                expected = Form.dual(m.gid(Part.PLUS, j)).wedge(
                    Form.dual(m.gid(Part.MINUS, i)))
                if i == j:
                    expected = expected + trace_form
                assert a.grid[i][j] == expected


def test_atiyah_entries_have_trigrade_101():
    for m in (ci.projective(2), ci.grassmannian(2, 2), ci.conformal(3),
              ci.g2_flag()):
        rep = next(iter(m.reps.values()))
        a = ci.atiyah_form(m, rep)
        for row in a.grid:
            for entry in row:
                for mask in entry.terms:
                    assert mask.bit_count() == 2
                    assert plus_count(m, mask) == 1
                    assert minus_count(m, mask) == 1


def test_tangent_atiyah_tensor_symmetric():
    for m in (ci.projective(2), ci.conformal(3)):
        tensor = ci.tangent_atiyah_form(m)
        for x, block in tensor.items():
            for y in block:
                for z in block[y]:
                    assert block[y][z] == block[z][y]


def test_tangent_atiyah_tensor_projective_already_symmetric():
    m = ci.projective(2)
    rep = m.reps["tangent"]
    tensor = ci.tangent_atiyah_form(m, rep)
    for a in range(2):
        x = m.gid(Part.PLUS, a)
        for b in range(2):
            y = m.gid(Part.MINUS, b)
            rho = rep.act(m, m.bracket_basis(x, y))
            amat = [[-rho.get((i, j), 0) for j in range(rep.dim)] for i in range(rep.dim)]
            for c in range(2):
                z = m.gid(Part.MINUS, c)
                assert tensor[x][y][z] == [amat[i][c] for i in range(2)]


def test_tangent_atiyah_tensor_split_zero():
    m = ci.split_projective(1, 1)
    tensor = ci.tangent_atiyah_form(m)
    assert all(not any(v) for block in tensor.values()
               for row in block.values() for v in row.values())


def test_chern_projective_line():
    m = ci.projective(1)
    c1 = ci.chern_forms(m, m.reps["tangent"], 1)[0]
    chi, omega = Form.dual(2), Form.dual(0)
    assert c1 == chi.wedge(omega).scale(2).tau_shift(1)


def test_chern_projective_relation_small():
    m = ci.projective(2)
    c1, c2 = ci.chern_forms(m, m.reps["tangent"], 2)
    assert (c2.scale(9) - c1.wedge(c1).scale(3)).is_zero


def test_chern_grade():
    m = ci.projective(3)
    cs = ci.chern_forms(m, m.reps["tangent"], 3)
    for k, c in enumerate(cs, start=1):
        assert is_at_grade(m, c, Grade(k, 0, k))
        assert c.tau == k


def test_chern_k_max_capped():
    m = ci.projective(2)
    with pytest.raises(ValueError):
        ci.chern_forms(m, m.reps["O(1)"], 2)


def test_chern_character_examples():
    m = ci.projective(3)
    rep = m.reps["tangent"]
    ch = ci.chern_character(m, rep, 3)
    c1 = ci.chern_forms(m, rep, 1)[0]
    assert ch[0] == c1  # ch_1 = c_1
    n = 3
    for j in (2, 3):
        lhs = ch[j - 1].scale(math.factorial(j) * (n + 1) ** (j - 1))
        assert (lhs - ch[0].wedge_power(j)).is_zero
    chm = ci.chern_character(m, m.reps["module"], 1)[0]
    assert chm.is_zero  # traceless module


def test_chern_character_traceless_grassmannian():
    m = ci.grassmannian(2, 2)
    assert ci.chern_character(m, m.reps["module"], 1)[0].is_zero


def test_chern_forms_satisfy_newton_identities_with_chern_characters():
    """k c_k = sum_i (-1)^(i-1) c_(k-i) i! ch_i in form arithmetic."""
    for m, label in [(ci.projective(2), "tangent"), (ci.grassmannian(2, 2), "U"),
                     (ci.g2_flag(), "graded-tangent")]:
        rep = m.reps[label]
        kmax = min(4, rep.dim)
        direct = ci.chern_forms(m, rep, kmax)
        ch = ci.chern_character(m, rep, kmax)
        ps = [ch[j - 1].scale(math.factorial(j)) for j in range(1, kmax + 1)]
        es = [Form.unit()]
        for k in range(1, kmax + 1):
            acc = Form.zero()
            for i in range(1, k + 1):
                term = es[k - i].wedge(ps[i - 1])
                acc = acc + (term if i % 2 == 1 else term.scale(-1))
            es.append(acc.scale(F(1, k)))
        assert all((a - b).is_zero for a, b in zip(direct, es[1:]))


def test_todd_forms():
    m = ci.projective(1)
    td1 = ci.todd_forms(m, m.reps["tangent"], 1)[0]
    chi, omega = Form.dual(2), Form.dual(0)
    assert td1 == chi.wedge(omega).tau_shift(1)
    m2 = ci.projective(2)
    td2 = ci.todd_forms(m2, m2.reps["tangent"], 2)[1]
    c1 = ci.chern_forms(m2, m2.reps["tangent"], 1)[0]
    assert td2 == c1.wedge(c1).scale(F(1, 9))  # (c1^2+c2)/12 with 3c2 = c1^2
    ms = ci.split_projective(1, 1)
    assert all(t.is_zero for t in ci.todd_forms(ms, ms.reps["tangent"], 4))
    # td_6[CP^6] = 1 and c_6[CP^6] = 7 on the top monomial, its one mask
    m6 = ci.projective(6)
    td6 = ci.todd_forms(m6, m6.reps["tangent"], 6)[5]
    c6 = ci.chern_forms(m6, m6.reps["tangent"], 6)[5]
    assert len(c6.terms) == 1 and td6 == c6.scale(F(1, 7))


def _newton_chern(k_max):
    """e_0 .. e_k by Newton's k e_k = sum_i (-1)^(i-1) e_{k-i} p_i in InvPoly
    arithmetic, the recursion ``InvPoly.chern`` generalizes."""
    es = [InvPoly.one()]
    for k in range(1, k_max + 1):
        acc = InvPoly()
        for i in range(1, k + 1):
            term = es[k - i] * InvPoly.trace_power(i)
            acc = acc + (term if i % 2 else term.scale(-1))
        es.append(acc.scale(F(1, k)))
    return es


# The Todd polynomials td_1 .. td_4 in the Chern classes, {partition: coefficient}.
TODD_TABLE = [{(1,): F(1, 2)},
              {(1, 1): F(1, 12), (2,): F(1, 12)},
              {(2, 1): F(1, 24)},
              {(1, 1, 1, 1): F(-1, 720), (2, 1, 1): F(4, 720), (3, 1): F(1, 720),
               (2, 2): F(3, 720), (4,): F(-1, 720)}]


def test_chern_series_matches_newton_recursion():
    for k, e in enumerate(_newton_chern(16)):
        assert InvPoly.chern(k) == e, k


def test_todd_series_matches_the_table():
    assert InvPoly.todd(0) == InvPoly.one()
    for k, row in enumerate(TODD_TABLE, start=1):
        table = InvPoly()
        for part, c in row.items():
            term = InvPoly.one()
            for q in part:
                term = term * InvPoly.chern(q)
            table = table + term.scale(c)
        assert InvPoly.todd(k) == table, k


def test_log_todd_coefficients():
    """In exp(sum_j a_j tr(X^j)) the word tr(X^j) arises only from a_j, so
    its coefficient in td_j is the log-Todd coefficient -B_j/(j j!)."""
    coeffs = [InvPoly.todd(j).terms.get((j,), 0) for j in range(1, 7)]
    assert coeffs == [F(1, 2), F(-1, 24), 0, F(1, 2880), 0, F(-1, 181440)]


def test_chern_character_matches_matwedge_powers():
    for m, label in [(ci.projective(3), "tangent"), (ci.grassmannian(2, 2), "tangent"),
                     (ci.g2_flag(), "graded-tangent")]:
        a = ci.atiyah_form(m, m.reps[label])
        power, expected = a, []
        for j in range(1, 5):
            expected.append(power.trace().scale(F(1, math.factorial(j))).tau_shift(j))
            power = power.matwedge(a)
        assert ci.chern_character(m, m.reps[label], 4) == expected, label


# (family, parameters, tangent rep, Euler characteristic of G/P)
RIEMANN_ROCH = ([("projective", {"n": n}, "tangent", n + 1) for n in (2, 3, 4, 6)]
                + [("grassmannian", {"p": p, "q": q}, "tangent", math.comb(p + q, p))
                   for p, q in ((2, 2), (2, 3))]
                + [("lagrangian", {"n": n}, "tangent", 2 ** n) for n in (2, 3)]
                + [("conformal", {"n": n}, "tangent", n + 1 if n % 2 else n + 2)
                   for n in (3, 4, 6)]
                + [("g2", {}, "graded-tangent", 6)])


@pytest.mark.parametrize("family, params, label, euler", RIEMANN_ROCH,
                         ids=[f + "".join(f"-{v}" for v in p.values())
                              for f, p, _, _ in RIEMANN_ROCH])
def test_top_todd_form_is_the_euler_form_over_euler_characteristic(family, params, label,
                                                                   euler):
    """Riemann-Roch on the flat model G/P: the Todd genus of a rational
    homogeneous space is 1 and the top Chern number is its Euler
    characteristic, so on the top monomial (every g- and g+ bit) the top
    Todd form is the top Chern form over chi(G/P)."""
    m = ci.build_model(family, **params)
    rep = m.reps[label]
    top = sum(1 << x for part in (Part.MINUS, Part.PLUS) for x in m.part_range(part))
    td = ci.chern_form_of(m, rep, InvPoly.todd(rep.dim)).terms[top]
    cn = ci.chern_form_of(m, rep, InvPoly.chern(rep.dim)).terms[top]
    assert td / cn == F(1, euler)


def test_invariant_poly_eval_examples():
    m = ci.projective(2)
    rep = m.reps["tangent"]
    a = ci.atiyah_form(m, rep)
    tr = InvPoly.trace_power(1)
    assert ci.invariant_poly_eval(tr, [a]) == a.trace()
    sq = tr * tr
    assert ci.invariant_poly_eval(sq, [a, a]) == a.trace().wedge(a.trace())
    p2 = InvPoly.trace_power(2)
    assert ci.invariant_poly_eval(p2, [a, a]) == a.matwedge(a).trace()


def test_invariant_poly_eval_symmetric_in_even_args():
    m = ci.projective(2)
    a = ci.atiyah_form(m, m.reps["tangent"])
    b = a.matwedge(a)
    f = InvPoly.chern(2)
    assert ci.invariant_poly_eval(f, [a, b]) == ci.invariant_poly_eval(f, [b, a])
    # odd arguments: swapping the distinct 1-form matrices u and w negates
    # the polarization, and moving the even c past them does not
    rep = m.reps["module"]
    u, c = ci.omega0_matrix(m, rep), ci.atiyah_form(m, rep)
    w = _graded_matrix(random.Random(5), 3, 1, m.total)
    for f in (InvPoly.chern(3), InvPoly.trace_power(3), parse_poly("c1*c2")):
        out = _polarized(f, [u, w, c])
        assert not out.is_zero
        assert _polarized(f, [w, u, c]) == -out
        assert _polarized(f, [c, u, w]) == _polarized(f, [u, c, w]) == out


def test_invariant_poly_eval_arity_checked():
    m = ci.projective(2)
    a = ci.atiyah_form(m, m.reps["tangent"])
    with pytest.raises(ValueError):
        ci.invariant_poly_eval(InvPoly.chern(2), [a])


def test_odd_repeated_argument_antisymmetry():
    # polarizing tr(X^2) at two copies of an odd matrix must cancel
    m = ci.projective(2)
    u = ci.omega0_matrix(m, m.reps["tangent"])
    out = _polarized(InvPoly.trace_power(2), [u, u])
    assert out.is_zero


def test_cs_coefficients():
    assert ci.cs_coefficients(2) == [F(1, 2), F(-1, 6)]
    assert ci.cs_coefficients(3) == [F(1, 6), F(-1, 12), F(1, 60)]
    assert [a / 2**j for j, a in enumerate(ci.cs_coefficients(3))] == [
        F(1, 6), F(-1, 24), F(1, 240)]


def test_cs_form_projective_line():
    m = ci.projective(1)
    rep = m.reps["tangent"]
    cs = ci.chern_simons_form(m, rep, InvPoly.chern(1))
    # tau tr(M) with rho(z1) = 2 on g-
    assert cs == Form.dual(1).scale(2).tau_shift(1)
    c1 = ci.chern_forms(m, rep, 1)[0]
    assert ce_differential(m, cs) == c1


def test_transgression_identities():
    """d CS_f is the Chern form of f, the class is the plus-count-(k-1)
    component of CS_f, and its quotient differential is the Chern form."""
    for n in (1, 2):
        m = ci.projective(n)
        rep = m.reps["tangent"]
        for f in (InvPoly.chern(1), InvPoly.chern_character(2)):
            t_form, _, cs = ci.transgression(m, rep, f)
            target = ci.chern_form_of(m, rep, f)
            assert ce_differential(m, cs) == target, (n, f)
            assert ci.plus_component(m, cs, f.degree - 1) == t_form, (n, f)
            assert ci.plus_component(m, ce_differential(m, t_form), f.degree) == target, (n, f)


def test_cs_class_t_c1_is_trace_of_connection():
    for m in (ci.projective(2), ci.conformal(3)):
        rep = m.reps["tangent"]
        t, grade = ci.cs_class(m, rep, InvPoly.chern(1))
        assert grade == Grade(0, 1, 0)
        assert t == ci.omega0_matrix(m, rep).trace().tau_shift(1)


def test_cs_class_power_rule():
    # T_{ch1^j} = T_c1 ^ c1^(j-1)
    m = ci.projective(2)
    rep = m.reps["tangent"]
    t_c1, _ = ci.cs_class(m, rep, InvPoly.chern(1))
    c1 = ci.chern_forms(m, rep, 1)[0]
    for j in (2, 3):
        t_j, grade = ci.cs_class(m, rep, InvPoly.chern_character(1) ** j)
        assert grade == Grade(j - 1, 1, j - 1)
        assert (t_j - t_c1.wedge(c1.wedge_power(j - 1))).is_zero


def test_cs_class_is_at_grade():
    m = ci.projective(3)
    rep = m.reps["tangent"]
    for f in (InvPoly.chern_character(2), InvPoly.chern_character(3)):
        t, grade = ci.cs_class(m, rep, f)
        assert is_at_grade(m, t, grade)


def test_multiplicativity_grassmannian():
    m = ci.grassmannian(2, 2)
    report = ci.verify_multiplicativity(m, m.reps["U"], m.reps["module"],
                                        m.reps["Q"], 4)
    assert report["ok"]


def test_multiplicativity_euler_sequence():
    m = ci.projective(2)
    report = ci.verify_multiplicativity(m, m.reps["trivial"], m.reps["euler"],
                                        m.reps["tangent"], 3)
    assert report["ok"]


def test_multiplicativity_refuses_k_max_below_one():
    """k_max bounds the degrees checked; 0 and below check none, so they are
    refused rather than reported as a pass."""
    m = ci.projective(2)
    sequence = (m.reps["trivial"], m.reps["euler"], m.reps["tangent"])
    assert list(ci.verify_multiplicativity(m, *sequence, 1)["by_degree"]) == [1]
    for k_max in (0, -3):
        with pytest.raises(ValueError, match="k_max"):
            ci.verify_multiplicativity(m, *sequence, k_max)


def test_multiplicativity_trivial_sum():
    from cartan_invariants.model import Rep
    m = ci.projective(1)
    triv1 = Rep("t1", [{}], 1)
    triv2 = Rep("t2", [{}], 2)
    report = ci.verify_multiplicativity(m, triv1, triv2, triv1, 2)
    assert report["ok"]


def test_multiplicativity_needs_the_sub_block_invariant():
    from cartan_invariants.model import Rep
    m = ci.projective(1)
    line = Rep("t1", [{}], 1)
    upper = Rep("upper", [{(0, 1): 1}], 2)  # an extension of line by line
    assert ci.verify_multiplicativity(m, line, upper, line, 2)["ok"]
    lower = Rep("lower", [{(1, 0): 1}], 2)
    with pytest.raises(ValueError, match="not block-triangular"):
        ci.verify_multiplicativity(m, line, lower, line, 2)


def test_multiplicativity_rejects_bad_blocks():
    m = ci.grassmannian(2, 2)
    with pytest.raises(ValueError):
        ci.verify_multiplicativity(m, m.reps["Q"], m.reps["module"], m.reps["U"], 2)


def test_o_d_linearity_and_euler_relation():
    m = ci.projective(2, o_weights=(1, 2, 5))
    c1 = {d: ci.chern_forms(m, m.reps[f"O({d})"], 1)[0] for d in (1, 2, 5)}
    for d in (2, 5):
        assert (c1[d] - c1[1].scale(d)).is_zero
    ct = ci.chern_forms(m, m.reps["tangent"], 1)[0]
    assert (c1[1].scale(3) - ct).is_zero  # (n+1) c1(O(1)) = c1(T)


def test_o_d_ghost_flags():
    m = ci.projective(2, o_weights=(1, 3))
    assert m.reps["O(1)"].ghost
    assert not m.reps["O(3)"].ghost  # n+1 = 3 divides 3


# -- oracles: the integer kernel and the multiset walk against the old paths ----


def _random_matrix_form(rng, rows, cols, width=8):
    grid = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            terms = {}
            for _ in range(rng.choice((0, 0, 1, 2, 3))):
                mask = 0
                for g in rng.sample(range(width), rng.choice((1, 2))):
                    mask |= 1 << g
                terms[mask] = F(rng.randint(-9, 9), rng.randint(1, 12))
            row.append(Form(terms))
        grid.append(row)
    return MatrixForm(grid)


def test_matwedge_and_trace_wedge_match_entrywise_wedges():
    rng = random.Random(17)
    for _ in range(60):
        n, k, p = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a = _random_matrix_form(rng, n, k)
        b = _random_matrix_form(rng, k, p)
        ref = [[Form.zero() for _ in range(p)] for _ in range(n)]
        for i in range(n):
            for j in range(p):
                for t in range(k):
                    ref[i][j] = ref[i][j] + a.grid[i][t].wedge(b.grid[t][j])
        assert a.matwedge(b) == MatrixForm(ref)
        c = _random_matrix_form(rng, p, n)
        tr = Form.zero()
        for i in range(n):
            for t in range(p):
                tr = tr + a.matwedge(b).grid[i][t].wedge(c.grid[t][i])
        assert a.matwedge(b).trace_wedge(c) == tr
    with pytest.raises(ValueError):
        _random_matrix_form(rng, 2, 3).trace_wedge(_random_matrix_form(rng, 3, 3))


@pytest.mark.parametrize("family,params,rep", [
    ("projective", dict(n=3), "tangent"), ("grassmannian", dict(p=2, q=2), "tangent"),
    ("grassmannian", dict(p=2, q=2), "U"), ("lagrangian", dict(n=2), "tangent"),
    ("conformal", dict(n=4), "tangent"), ("g2", dict(), "graded-tangent"),
])
def test_chern_forms_match_full_product_recursion(family, params, rep):
    m = ci.build_model(family, **params)
    r = m.reps[rep] if rep in m.reps else ci.tangent_rep(m)
    for k_max in range(1, min(r.dim, 4) + 1):
        assert ci.chern_forms(m, r, k_max) == leverrier_chern(m, r, k_max)


def _walk_weights(ids, degrees):
    """The k! walk: every permutation, its Koszul sign summed per sequence."""
    weights = {}
    for perm in permutations(range(len(ids))):
        seq = tuple(ids[p] for p in perm)
        weights[seq] = weights.get(seq, 0) + _koszul_sign(perm, degrees)
    return {seq: w for seq, w in weights.items() if w}


def _walk_polarized(f, args, degrees, memo=None):
    """The k! walk: for every permutation and trace word, the wedge of the
    traces of the full products.  Products and wedges of traces are memoized
    in ``memo`` by the matrices (by identity) they multiply, so calls on the
    same matrices may share it."""
    memo = {} if memo is None else memo

    def product(mats):
        key = tuple(map(id, mats))
        if key not in memo:
            memo[key] = (mats[0] if len(mats) == 1 else product(mats[:-1]).matwedge(mats[-1]), mats)
        return memo[key][0]

    result = Form.zero()
    for perm in permutations(range(len(args))):
        sign = _koszul_sign(perm, degrees)
        mats = tuple(args[p] for p in perm)
        for word, coeff in f.terms.items():
            pos, acc = 0, Form.unit()
            for part in word:
                key = (word, *map(id, mats[:pos + part]))
                if key not in memo:
                    memo[key] = (acc.wedge(product(mats[pos:pos + part]).trace()), mats)
                acc = memo[key][0]
                pos += part
            result = result + acc.scale(coeff * sign)
    return result


def _graded_matrix(rng, n, degree, width=9):
    """An n x n matrix of random forms of one degree on ``width`` generators."""
    return MatrixForm([[Form({sum(1 << g for g in rng.sample(range(width), degree)):
                              rng.randint(-4, 4) for _ in range(rng.randint(0, 2))})
                        for _ in range(n)] for _ in range(n)])


POLARIZED_POLYS = ["c2", "c3", "c1*c2", "c4", "c1*c3", "c2^2", "c1^2*c2", "5^5*c5-3*c1^5"]


def test_polarized_matches_permutation_walk():
    """On projective(2) and grassmannian(2, 2), at copies of a alone, with two
    copies of u, and with u (odd) at every position next to v = u^u (even),
    the odd w = u a or a, the trace classes give the k! walk's sum."""
    nonzero = 0
    for m in (ci.projective(2), ci.grassmannian(2, 2)):
        memo = {}
        rep = m.reps["tangent"]
        u, a = ci.omega0_matrix(m, rep), ci.atiyah_form(m, rep)
        v, w = u.matwedge(u), u.matwedge(a)
        for f in [InvPoly.trace_power(3)] + [parse_poly(text) for text in POLARIZED_POLYS]:
            k = f.degree
            cases = [([a] * k, [2] * k), ([u, u] + [a] * (k - 2), [1, 1] + [2] * (k - 2))]
            for p in range(k):
                for other, d in ((None, 2), (v, 2), (w, 3)):
                    args, degrees = [a] * k, [2] * k
                    if other is not None:
                        args[(p + 1) % k], degrees[(p + 1) % k] = other, d
                    args[p], degrees[p] = u, 1
                    cases.append((args, degrees))
            for args, degrees in cases:
                out = _polarized(f, args)
                assert out == _walk_polarized(f, args, degrees, memo), (m.meta, f.terms, degrees)
                nonzero += not out.is_zero
    assert nonzero > 100


def test_polarized_matches_permutation_walk_on_random_matrices():
    """Random 3 x 3 matrices of 1- and 2-forms, two of each parity, in random
    sequences: every trace word has nonzero traces to rotate and sort."""
    rng = random.Random(20261019)
    letters = [(_graded_matrix(rng, 3, d), d) for d in (1, 1, 2, 2)]
    for text in POLARIZED_POLYS:
        f = parse_poly(text)
        for _ in range(3):
            picks = [rng.choice(letters) for _ in range(f.degree)]
            args, degrees = [x for x, _ in picks], [d for _, d in picks]
            out = _polarized(f, args)
            assert out == _walk_polarized(f, args, degrees), (f.terms, degrees)


def test_trace_is_graded_cyclic():
    """tr(P Q) = (-1)^(|P||Q|) tr(Q P) on the words P, Q of length <= 2 in u,
    v and a on grassmannian(2, 2), and on random matrices of 1- and 2-forms."""
    m = ci.grassmannian(2, 2)
    rep = m.reps["tangent"]
    u, a = ci.omega0_matrix(m, rep), ci.atiyah_form(m, rep)
    rng = random.Random(5)
    for letters in ([(u, 1), (u.matwedge(u), 2), (a, 2)],
                    [(_graded_matrix(rng, 3, d), d) for d in (1, 1, 2)]):
        words = letters + [(x.matwedge(y), dx + dy) for x, dx in letters for y, dy in letters]
        odd_pairs = 0
        for p, dp in words:
            for q, dq in words:
                pq = p.trace_wedge(q)
                assert pq == q.trace_wedge(p).scale((-1) ** (dp * dq))
                odd_pairs += dp * dq % 2 and not pq.is_zero
        assert odd_pairs > 0


def _per_call_polarized(f, args, degrees):
    """The polarization with its own product and trace caches, keyed by the
    argument positions of this one call."""
    seen = {}
    ids = [seen.setdefault(id(a), len(seen)) for a in args]
    uniq = {i: a for a, i in zip(args, ids)}
    prod_cache, trace_cache = {}, {}

    def product(seq):
        if seq not in prod_cache:
            prod_cache[seq] = (uniq[seq[0]] if len(seq) == 1
                               else product(seq[:-1]).matwedge(uniq[seq[-1]]))
        return prod_cache[seq]

    def trace(seq):
        if seq not in trace_cache:
            trace_cache[seq] = (uniq[seq[0]].trace() if len(seq) == 1
                                else product(seq[:-1]).trace_wedge(uniq[seq[-1]]))
        return trace_cache[seq]

    result = Form.zero()
    for seq, weight in _walk_weights(ids, degrees).items():
        for word, coeff in f.terms.items():
            pos, acc = 0, None
            for part in word:
                t = trace(seq[pos:pos + part])
                pos += part
                acc = t if acc is None else acc.wedge(t)
            result = result + acc.scale(coeff * weight)
    return result


def _separate_cs_class(m, rep, f):
    """The j = 0 term alone, with its own u and a."""
    k = f.degree
    args = [ci.omega0_matrix(m, rep)] + [ci.atiyah_form(m, rep)] * (k - 1)
    form = _per_call_polarized(f, args, [1] + [2] * (k - 1)).scale(ci.cs_coefficients(k)[0])
    return form.tau_shift(k), Grade(k - 1, 1, k - 1)


def _separate_cs_form(m, rep, f):
    """Every term j polarized on its own, each with its own caches."""
    k = f.degree
    u, a = ci.omega0_matrix(m, rep), ci.atiyah_form(m, rep)
    v = u.matwedge(u)
    acc = Form.zero()
    for j, c in enumerate(ci.cs_coefficients(k)):
        args = [u] + [v] * j + [a] * (k - 1 - j)
        acc = acc + _per_call_polarized(f, args, [1] + [2] * (k - 1)).scale(c)
    return acc.tau_shift(k)


def test_transgression_matches_separate_evaluations():
    """One shared evaluation gives the class and the full form that the
    per-call polarizations give, on every family."""
    cases = [(ci.projective(3), "tangent"), (ci.grassmannian(2, 2), "tangent"),
             (ci.lagrangian_grassmannian(2), "tangent"), (ci.conformal(4), "tangent"),
             (ci.foliated_projective(1, 2), "normal"), (ci.split_projective(1, 2), "tangent"),
             (ci.g2_flag(), "graded-tangent")]
    polys = [InvPoly.chern(1), InvPoly.chern(2), InvPoly.chern(3),
             InvPoly.chern_character(2), InvPoly.chern_character(3),
             InvPoly.chern(1) ** 2, InvPoly.chern(1) ** 3]
    nonzero_tails = 0
    for m, name in cases:
        rep = m.reps[name]
        extra = [parse_poly("5^5*c5-3*c1^5")] if name == "graded-tangent" else []
        for f in polys + extra:
            t_form, grade, full = ci.transgression(m, rep, f)
            ref_class, ref_full = _separate_cs_class(m, rep, f), _separate_cs_form(m, rep, f)
            assert (t_form, grade) == ref_class, (m.meta, f.terms)
            assert full == ref_full, (m.meta, f.terms)
            assert ci.cs_class(m, rep, f) == ref_class
            assert ci.chern_simons_form(m, rep, f) == ref_full
            nonzero_tails += not (full - t_form).is_zero
    assert nonzero_tails >= 10  # the j >= 1 terms are exercised


@pytest.mark.parametrize("family, params, name", [
    ("projective", dict(n=1), "module"), ("projective", dict(n=2), "module"),
    ("grassmannian", dict(p=2, q=2), "tangent"), ("lagrangian", dict(n=2), "tangent"),
    ("conformal", dict(n=3), "tangent"), ("foliated", dict(p=1, q=1), "tangent"),
    ("split", dict(p=1, q=1), "tangent"), ("g2", dict(), "graded-tangent"),
])
def test_skipped_transgression_terms_are_zero(family, params, name):
    """Every term a_j f~(u, v^j, a^(k-1-j)) that ``_transgression_terms``
    does not evaluate, with 2j + 1 > dim g0 or k - 1 - j > min(dim g-,
    dim g+), polarizes to zero, for c_k with k <= 7."""
    m = ci.build_model(family, **params)
    rep = m.reps[name]
    u, a = ci.omega0_matrix(m, rep), ci.atiyah_form(m, rep)
    v = u.matwedge(u)
    room = min(m.dims[Part.MINUS], m.dims[Part.PLUS])
    skipped = 0
    for k in range(1, 8):
        words = {}
        for j in range(k):
            if k - 1 - j > room or 2 * j + 1 > m.dims[Part.ZERO]:
                args = [u] + [v] * j + [a] * (k - 1 - j)
                assert _polarized(InvPoly.chern(k), args, words).is_zero
                skipped += 1
    assert skipped >= 9


def test_transgression_evaluates_each_trace_class_once(monkeypatch):
    """In the g2 transgression of 5^5*c5-3*c1^5, each traced word is asked of
    ``_word`` in one rotation only, and each is evaluated once: as many traces
    are computed as there are distinct traced words."""
    from cartan_invariants import charforms
    asked, computed = set(), []
    word = charforms._word

    def spy_word(cache, mats, traced):
        if traced:
            asked.add(tuple(map(id, mats)))
        return word(cache, mats, traced)

    def spy(name):
        method = getattr(MatrixForm, name)
        return lambda self, *rest: computed.append(name) or method(self, *rest)

    monkeypatch.setattr(charforms, "_word", spy_word)
    monkeypatch.setattr(MatrixForm, "trace", spy("trace"))
    monkeypatch.setattr(MatrixForm, "trace_wedge", spy("trace_wedge"))
    m = ci.g2_flag()
    charforms.transgression(m, m.reps["graded-tangent"], parse_poly("5^5*c5-3*c1^5"))
    rotations = {min(w[r:] + w[:r] for r in range(len(w))) for w in asked}
    assert len(rotations) == len(asked) == len(computed) > 20
