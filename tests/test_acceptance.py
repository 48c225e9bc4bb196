"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every equality below is exact (rational arithmetic, structural form
equality); there are no tolerances.  Three criteria carry interpretation
notes where the classical displays they quote are arithmetically inconsistent
with their own derivations (Grassmannian tensor sign, foliation binomial
relation, the dimension factor in the conformal first Chern form); the
assertions here implement the derivation-verified identities.  See the
decisions ledger for the analysis.
"""

import math
import time
import zlib
from fractions import Fraction as F

import cartan_invariants as ci
from cartan_invariants import Part
from cartan_invariants.forms import (
    Form, Grade, ce_differential, is_at_grade, minus_count, monomial_masks,
    plus_component, quotient_d)
from cartan_invariants.invariants import InvPoly, parse_poly
from cartan_invariants.relations import partitions_of
from dense_oracle import in_span, same_span
from leverrier_oracle import leverrier_chern


def _report(number: int, name: str, checks: list[tuple[bool, str]]):
    ok = all(flag for flag, _ in checks)
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    for flag, detail in checks:
        print(f"    [{'ok' if flag else 'FAIL'}] {detail}")
    assert ok, f"criterion {number} failed"


def _builtin_models():
    out = []
    for n in range(1, 6):
        out.append(ci.projective(n))
    for (p, q) in [(1, 1), (2, 2), (2, 3)]:
        out.append(ci.grassmannian(p, q))
    for n in (1, 2):
        out.append(ci.lagrangian_grassmannian(n))
    for n in (3, 4, 5):
        out.append(ci.conformal(n))
    for (p, q) in [(1, 1), (2, 2)]:
        out.append(ci.foliated_projective(p, q))
    for (p, q) in [(1, 1), (2, 2)]:
        out.append(ci.split_projective(p, q))
    out.append(ci.g2_flag())
    return out


def _model_tag(m):
    params = ",".join(f"{k}={v}" for k, v in sorted(m.meta["params"].items())
                      if k != "o_weights")
    return f"{m.meta['family']}({params})"


def _random_form_at_grade(m, rng):
    for _ in range(50):
        deg = rng.randint(1, min(5, m.total))
        r = rng.randint(0, min(deg, m.dims[2]))
        masks = monomial_masks(m, deg, r, 0)
        if not masks:
            continue
        picks = rng.sample(masks, min(len(masks), rng.randint(1, 3)))
        xi = Form.zero()
        for mask in picks:
            xi = xi + Form.monomial(mask, rng.randint(-5, 5))
        if xi.is_zero:
            continue
        p = min(minus_count(m, mask) for mask in xi.terms)
        return xi, Grade(p, deg - p - r, r)
    raise AssertionError("could not sample a form")


def test_criterion_1_validation_suite():
    import random
    t0 = time.monotonic()
    checks = []
    models = _builtin_models()
    for m in models:
        report = ci.validate_model(m)
        checks.append((report.ok, f"{_model_tag(m)}: jacobi + langlands"))
        rep_ok = all(ci.validate_rep(m, rep).ok for rep in m.reps.values())
        checks.append((rep_ok, f"{_model_tag(m)}: module commutator checks"))
        gen_ok = True
        for gen in m.generators:
            xi = Form.dual(gen.gid)
            r = 1 if gen.part == Part.PLUS else 0
            p_max = 1 if gen.part == Part.MINUS else 0
            for p in range(p_max + 1):
                q = 1 - p - r
                if q < 0:
                    continue
                grade = Grade(p, q, r)
                if not is_at_grade(m, xi, grade):
                    continue
                once = quotient_d(m, xi, grade)
                if not once.is_zero and not quotient_d(m, once, grade.raised()).is_zero:
                    gen_ok = False
        checks.append((gen_ok, f"{_model_tag(m)}: d_q^2 = 0 on generator duals"))
        seed = zlib.crc32(_model_tag(m).encode()) & 0xFFFF
        rng = random.Random(seed)
        rand_ok = True
        for _ in range(100):
            xi, grade = _random_form_at_grade(m, rng)
            once = quotient_d(m, xi, grade)
            if not once.is_zero and not quotient_d(m, once, grade.raised()).is_zero:
                rand_ok = False
        checks.append((rand_ok, f"{_model_tag(m)}: d_q^2 = 0 on 100 random forms (seed {seed})"))
    elapsed = time.monotonic() - t0
    checks.append((elapsed < 30, f"runtime {elapsed:.1f}s < 30s"))
    _report(1, "validation suite", checks)


def _relation_vector(partitions, entries):
    vec = [F(0)] * len(partitions)
    for part, coeff in entries.items():
        vec[partitions.index(part)] = F(coeff)
    return vec


def _product_relations(partitions, k, generators):
    """Lift relations {j: (a_j, b_j)} meaning a_j c_j - b_j c1^j into degree k
    by multiplying with every Chern monomial of complementary degree."""
    out = []
    for j, (aj, bj) in generators.items():
        if j > k:
            continue
        for mu in partitions_of(k - j):
            entries = {}
            m1 = tuple(sorted((j,) + mu, reverse=True))
            m2 = tuple(sorted((1,) * j + mu, reverse=True))
            entries[m1] = entries.get(m1, 0) + aj
            entries[m2] = entries.get(m2, 0) - bj
            out.append(_relation_vector(partitions, entries))
    return out


def test_criterion_2_projective_relations():
    t0 = time.monotonic()
    checks = []
    for n in range(2, 6):
        m = ci.projective(n)
        rep = m.reps["tangent"]
        cs = ci.chern_forms(m, rep, n)
        c1 = cs[0]
        for k in range(1, n + 1):
            diff = cs[k - 1].scale((n + 1) ** k) - c1.wedge_power(k).scale(
                math.comb(n + 1, k))
            checks.append((diff.is_zero,
                           f"projective({n}): ({n+1})^{k} c{k} = C({n+1},{k}) c1^{k}"))
        generators = {j: ((n + 1) ** j, math.comb(n + 1, j)) for j in range(2, n + 1)}
        for k in range(1, n + 1):
            rels = ci.find_relations(m, rep, k)
            partitions = partitions_of(k)
            got = [[F(c) for c in r.coefficients] for r in rels]
            if k == 1:
                checks.append((not rels, f"projective({n}): no relations at degree 1"))
                continue
            expected = _product_relations(partitions, k, generators)
            rk = _relation_vector(
                partitions,
                {(k,): (n + 1) ** k, (1,) * k: -math.comb(n + 1, k)})
            lower = _product_relations(partitions, k,
                                       {j: generators[j] for j in generators
                                        if j < k})
            new_dim_one = (same_span(got, expected)
                           and in_span(got, rk)
                           and not in_span(lower, rk))
            checks.append((new_dim_one,
                           f"projective({n}) degree {k}: relation space = products "
                           f"of lower relations + one new relation"))
    elapsed = time.monotonic() - t0
    checks.append((elapsed < 60, f"runtime {elapsed:.1f}s < 60s"))
    _report(2, "projective Chern relations", checks)


def test_criterion_3_projective_chern_character():
    checks = []
    for n in (3, 4):
        m = ci.projective(n)
        ch = ci.chern_character(m, m.reps["tangent"], n)
        for j in range(1, n + 1):
            lhs = ch[j - 1].scale(math.factorial(j) * (n + 1) ** (j - 1))
            checks.append(((lhs - ch[0].wedge_power(j)).is_zero,
                           f"projective({n}): ({n+1})^{j-1} {j}! ch{j} = ch1^{j}"))
    _report(3, "projective Chern character", checks)


def test_criterion_4_projective_chern_simons():
    checks = []
    for n in (3, 4):
        m = ci.projective(n)
        rep = m.reps["tangent"]
        c1 = ci.chern_forms(m, rep, 1)[0]
        t_c1, _ = ci.cs_class(m, rep, InvPoly.chern(1))
        t_ch2, _ = ci.cs_class(m, rep, InvPoly.chern_character(2))
        for j in range(3, n + 1):
            t_chj, _ = ci.cs_class(m, rep, InvPoly.chern_character(j))
            rhs = t_ch2.wedge(c1.scale(F(1, n + 1)).wedge_power(j - 2)).scale(
                F(1, math.factorial(j - 2)))
            checks.append(((t_chj.scale(math.comb(j, 2)) - rhs).is_zero,
                           f"projective({n}): C({j},2) T_ch{j} = "
                           f"T_ch2 (c1/{n+1})^{j-2}/({j-2})!"))
            t_pow, _ = ci.cs_class(m, rep, InvPoly.chern_character(1) ** j)
            checks.append(((t_pow - t_c1.wedge(c1.wedge_power(j - 1))).is_zero,
                           f"projective({n}): T_ch1^{j} = T_c1 c1^{j-1}"))
    _report(4, "projective Chern-Simons relations", checks)


def _tensor_matches(m, rep, expect):
    """expect(x_idx, y1_idx, y2_idx) -> coefficient list over g-."""
    n_minus = m.dims[0]
    for xi in range(m.dims[2]):
        x = m.gid(Part.PLUS, xi)
        for y1 in range(n_minus):
            rho = rep.act(m, m.bracket_basis(x, m.gid(Part.MINUS, y1)))
            amat = [[-rho.get((i, j), 0) for j in range(rep.dim)] for i in range(rep.dim)]
            for y2 in range(n_minus):
                got = [amat[i][y2] for i in range(n_minus)]
                if got != expect(xi, y1, y2):
                    return False
    return True


def test_criterion_5_grassmannian():
    checks = []
    for (p, q) in [(2, 2), (2, 3)]:
        m = ci.grassmannian(p, q)

        def mat_minus(idx):
            I, j = divmod(idx, p)
            out = [[0] * p for _ in range(q)]
            out[I][j] = 1
            return out

        def mat_plus(idx):
            i, J = divmod(idx, q)
            out = [[0] * q for _ in range(p)]
            out[i][J] = 1
            return out

        def mul(a, b):
            return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
                     for j in range(len(b[0]))] for i in range(len(a))]

        def expect(xi, y1, y2):
            X, Y1, Y2 = mat_plus(xi), mat_minus(y1), mat_minus(y2)
            s, t = mul(mul(Y1, X), Y2), mul(mul(Y2, X), Y1)
            return [F(s[I][j] + t[I][j]) for I in range(q) for j in range(p)]

        checks.append((_tensor_matches(m, m.reps["tangent"], expect),
                       f"grassmannian({p},{q}): a(x,y1)y2 = y1 x y2 + y2 x y1 "
                       "(sign per the structure equations; the displayed "
                       "-y1xy2+y2xy1 vanishes identically at p=q=1)"))
        mult = ci.verify_multiplicativity(m, m.reps["U"], m.reps["module"],
                                          m.reps["Q"], p + q)
        checks.append((mult["ok"], f"grassmannian({p},{q}): c(U)c(Q) = c(C^{p+q})"))
        checks.append((ci.chern_character(m, m.reps["module"], 1)[0].is_zero,
                       f"grassmannian({p},{q}): ch1(restricted module) = 0"))

    n = 2
    m = ci.lagrangian_grassmannian(n)
    pairs = [(a, b) for a in range(n) for b in range(a, n)]

    def sym(idx):
        a, b = pairs[idx]
        out = [[0] * n for _ in range(n)]
        out[a][b] += 1
        out[b][a] += 1
        if a == b:
            out[a][a] = 1
        return out

    def mull(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    def expect_sym(xi, y1, y2):
        X, Y1, Y2 = sym(xi), sym(y1), sym(y2)
        s, t = mull(mull(Y1, X), Y2), mull(mull(Y2, X), Y1)
        tot = [[s[i][j] + t[i][j] for j in range(n)] for i in range(n)]
        return [F(tot[a][b]) for (a, b) in pairs]

    checks.append((_tensor_matches(m, m.reps["tangent"], expect_sym),
                   "lagrangian_grassmannian(2): same tensor identity on "
                   "symmetric matrices"))
    _report(5, "Grassmannian geometries", checks)


def test_criterion_6_conformal():
    checks = []
    for n in (3, 4):
        m = ci.conformal(n)
        rep = m.reps["tangent"]
        P = m.meta["plus_transport"]
        Q = m.meta["pairing"]

        def expect(xi, y1, y2):
            px = [P[i][xi] for i in range(n)]
            q_px_y1 = sum(px[i] * Q[i][y1] for i in range(n))
            q_px_y2 = sum(px[i] * Q[i][y2] for i in range(n))
            return [-q_px_y1 * int(i == y2) - q_px_y2 * int(i == y1)
                    + Q[y1][y2] * px[i] for i in range(n)]

        checks.append((_tensor_matches(m, rep, expect),
                       f"conformal({n}): three-term pairing formula for a(x,y1)y2"))
        pairing_form = Form.zero()
        for a in range(n):
            u = Form.dual(m.gid(Part.PLUS, a))
            for b in range(n):
                coef = sum(P[i][a] * Q[i][b] for i in range(n))
                if coef:
                    w = Form.dual(m.gid(Part.MINUS, b))
                    pairing_form = pairing_form + u.wedge(w).scale(coef)
        c1 = ci.chern_forms(m, rep, 1)[0]
        checks.append(((c1 - pairing_form.scale(-n).tau_shift(1)).is_zero,
                       f"conformal({n}): c1 = -dim * tau * pairing form "
                       "(the classical display's 2n is its dimension, here n)"))
        aks = ci.conformal_coefficients(n)
        cs = ci.chern_forms(m, rep, n)
        for k in range(1, n + 1):
            diff = cs[k - 1].scale(n ** k) - c1.wedge_power(k).scale(aks[k - 1])
            if diff.is_zero:
                checks.append((True, f"conformal({n}): {n}^{k} c{k} = "
                                     f"{aks[k-1]} c1^{k} as exact forms"))
            else:
                res = ci.find_primitive(m, diff, Grade(k, 0, k))
                checks.append((res.exact,
                               f"conformal({n}) degree {k}: difference is "
                               "quotient-exact (class-level fallback)"))
    _report(6, "conformal geometries", checks)


def test_criterion_7_foliations():
    checks = []
    p, q = 2, 2
    m = ci.foliated_projective(p, q)
    tf = m.reps["TF"]
    nor = m.reps["normal"]
    cs = ci.chern_forms(m, tf, p)
    c1 = cs[0]
    for k in range(1, p + 1):
        det_derived = (cs[k - 1].scale(p ** k)
                       - c1.wedge_power(k).scale(math.comb(p, k))).is_zero
        checks.append((det_derived,
                       f"{p}^{k} c{k}(TF) = C({p},{k}) c1(TF)^{k} (det-derived; "
                       "the displayed relation omits the p^k factor)"))
    c1n = ci.chern_forms(m, nor, 1)[0]
    checks.append(((c1n.scale(p) - c1.scale(q + 1)).is_zero,
                   f"{p} c1(TM/TF) = {q+1} c1(TF)"))
    checks.append((c1.wedge_power(q + 1).is_zero, f"c1(TF)^{q+1} = 0"))
    checks.append((c1n.wedge_power(q + 1).is_zero, f"c1(TM/TF)^{q+1} = 0"))
    bb = True
    for k in range(q + 1, q + 3):
        for part in partitions_of(k):
            f = InvPoly.one()
            for piece in part:
                f = f * InvPoly.trace_power(piece)
            if not ci.chern_form_of(m, nor, f).is_zero:
                bb = False
    checks.append((bb, f"normal module kills every invariant of degree > {q} "
                       "(the content of c_k(normal) = 0 beyond the codimension)"))
    cs_ok = True
    for k in range(q + 2, q + 4):
        for part in partitions_of(k):
            f = InvPoly.one()
            for piece in part:
                f = f * InvPoly.trace_power(piece)
            t, _ = ci.cs_class(m, nor, f)
            if not t.is_zero:
                cs_ok = False
    checks.append((cs_ok, f"normal cs_class of every trace word of degree >= "
                          f"{q+2} vanishes"))
    _report(7, "1-flat foliations", checks)


def test_criterion_8_split_tangent():
    checks = []
    m = ci.split_projective(2, 2)
    rep = m.reps["tangent"]
    checks.append((ci.atiyah_form(m, rep).is_zero(), "atiyah_form(tangent) = 0"))
    cs = ci.chern_forms(m, rep, 4)
    checks.append((all(c.is_zero for c in cs), "all c_k = 0"))
    all_vanish = True
    for k in (2, 3, 4):
        for part in partitions_of(k):
            f = InvPoly.one()
            for piece in part:
                f = f * InvPoly.trace_power(piece)
            t, _ = ci.cs_class(m, rep, f)
            if not t.is_zero:
                all_vanish = False
    checks.append((all_vanish, "cs_class of every trace word of degree >= 2 "
                               "vanishes"))
    t1, _ = ci.cs_class(m, rep, InvPoly.chern(1))
    checks.append((not t1.is_zero,
                   "T_c1 is nonzero, the one term the vanishing theorem excepts"))
    _report(8, "split tangent bundle", checks)


def test_criterion_9_g2():
    t0 = time.monotonic()
    checks = []
    m = ci.g2_flag()
    rep = m.reps["graded-tangent"]
    cs = ci.chern_forms(m, rep, 5)
    c1 = cs[0]
    relation_data = {2: (25, 11), 3: (125, 13), 4: (625, 9), 5: (3125, 3)}
    top = cs[4].scale(3125) - c1.wedge_power(5).scale(3)
    checks.append((top.is_zero, "3125 c5 = 3 c1^5 holds exactly at form level"))
    generators = {j: relation_data[j] for j in relation_data}
    for k in range(2, 6):
        rels = ci.find_relations(m, rep, k, modulo_exact=True)
        partitions = partitions_of(k)
        got = [[F(c) for c in r.coefficients] for r in rels]
        expected = _product_relations(partitions, k, generators)
        rk = _relation_vector(partitions,
                              {(k,): relation_data[k][0],
                               (1,) * k: -relation_data[k][1]})
        lower = _product_relations(partitions, k,
                                   {j: generators[j] for j in generators if j < k})
        ok = same_span(got, expected) and in_span(got, rk) and not in_span(lower, rk)
        checks.append((ok, f"degree {k}: class relations = products of lower "
                           f"relations + span{{{relation_data[k][0]}c{k} - "
                           f"{relation_data[k][1]}c1^{k}}} (quotient cohomology; "
                           "only the degree-5 relation is a form identity)"))
    target, grade = ci.cs_class(m, rep, parse_poly("5^5*c5-3*c1^5"))
    checks.append((grade == Grade(4, 1, 4) and len(target.terms) == 12,
                   "cs_class(5^5 c5 - 3 c1^5) has the 12-monomial support of "
                   "the classical table"))
    closed, _ = ci.is_closed(m, target, grade)
    checks.append((closed, "the transgression class is quotient-closed"))
    res = ci.find_primitive(m, target, grade)
    verified = False
    if res.exact:
        verified = plus_component(m, ce_differential(m, res.psi), grade.r) == target
    checks.append((res.exact and verified,
                   "a primitive exists and re-verifies exactly"))
    cocycles = ci.invariant_cocycles(m, Grade(1, 1, 1))
    checks.append((len(cocycles) == 1,
                   "closed invariant (1,1,1)-space is one-dimensional "
                   "(the Cartan 3-form analog)"))
    elapsed = time.monotonic() - t0
    checks.append((elapsed < 300, f"runtime {elapsed:.1f}s < 5min"))
    _report(9, "g2 flag model", checks)


def test_criterion_10_cross_algorithm_oracle():
    checks = []
    for m in _builtin_models():
        for label, rep in sorted(m.reps.items()):
            kmax = min(5, rep.dim)
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
            ok = all((a - b).is_zero for a, b in zip(direct, es[1:]))
            checks.append((ok, f"{_model_tag(m)}/{label}: Chern forms = Newton "
                               "reconstruction from Chern characters"))
            checks.append((direct == leverrier_chern(m, rep, kmax),
                           f"{_model_tag(m)}/{label}: Chern forms = Faddeev-LeVerrier "
                           "recursion"))
    for n in (1, 2):
        m = ci.projective(n)
        rep = m.reps["tangent"]
        for name, f in (("c1", InvPoly.chern(1)), ("ch2", InvPoly.chern_character(2))):
            cs_form = ci.chern_simons_form(m, rep, f)
            target = ci.chern_form_of(m, rep, f)
            checks.append((ce_differential(m, cs_form) == target,
                           f"projective({n}): d(CS_{name}) equals the Chern form "
                           "as a full exterior identity"))
    _report(10, "cross-algorithm oracle", checks)
