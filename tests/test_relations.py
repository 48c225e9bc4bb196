import math
from fractions import Fraction as F

import pytest

import cartan_invariants as ci
from cartan_invariants.forms import Form, Grade, combination, wedge_all
from cartan_invariants.invariants import InvPoly, parse_poly
from cartan_invariants.linalg import is_fredholm_witness
from cartan_invariants.relations import partition_label, partitions_of


def test_partitions_order():
    assert partitions_of(2) == [(2,), (1, 1)]
    assert partitions_of(5)[0] == (5,)
    assert partitions_of(5)[-1] == (1, 1, 1, 1, 1)
    assert partition_label((3, 1, 1)) == "c3*c1^2"
    assert partition_label((2,)) == "c2"


def test_conformal_coefficients():
    assert ci.conformal_coefficients(2) == [2, 2]
    assert ci.conformal_coefficients(3) == [3, 4, 2]
    assert ci.conformal_coefficients(4) == [4, 7, 6, 3]
    with pytest.raises(ValueError):
        ci.conformal_coefficients(0)


def _conformal_double_sum(n):
    """The generating function summed term by term: (1+h)^(n-2q) h^(2q)."""
    poly = [0] * (n + 1)
    for q in range(n // 2 + 1):
        for t in range(n - 2 * q + 1):
            poly[2 * q + t] += math.comb(n - 2 * q, t)
    return poly[1:]


def test_conformal_coefficients_match_the_double_sum():
    for n in range(1, 201):
        assert ci.conformal_coefficients(n) == _conformal_double_sum(n), n


def test_find_relations_projective2():
    m = ci.projective(2)
    rels = ci.find_relations(m, m.reps["tangent"], 2)
    assert len(rels) == 1
    assert rels[0].to_json() == {"monomials": ["c2", "c1^2"],
                                 "coefficients": ["3", "-1"]}  # 9c2 = 3c1^2 reduced


def test_find_relations_g2_class_level():
    m = ci.g2_flag()
    rels = ci.find_relations(m, m.reps["graded-tangent"], 2, modulo_exact=True)
    assert [r.to_json() for r in rels] == [
        {"monomials": ["c2", "c1^2"], "coefficients": ["25", "-11"]}
    ]
    # at strict form level the degree-2 classes are independent
    assert ci.find_relations(m, m.reps["graded-tangent"], 2) == []


def test_class_relations_check_the_kernel_primitive_without_a_new_search(monkeypatch):
    """With modulo_exact, each relation's primitive comes from its kernel row:
    one invariant_basis and no find_primitive per relation.  Each residual is
    still exact by an independent primitive search."""
    from cartan_invariants import relations
    m = ci.g2_flag()
    rep = m.reps["graded-tangent"]
    calls = []
    invariant_basis = relations.invariant_basis

    def counted(*args):
        calls.append(args[1:])
        return invariant_basis(*args)

    monkeypatch.setattr(relations, "invariant_basis", counted)
    monkeypatch.setattr(relations, "find_primitive", None)
    rels = ci.find_relations(m, rep, 4, modulo_exact=True)
    assert calls == [(7, 3, 4)] and len(rels) == 4
    monkeypatch.undo()
    monomials = [wedge_all(ci.chern_forms(m, rep, 4)[q - 1] for q in p)
                 for p in rels[0].partitions]
    for r in rels:
        residual = combination(zip(r.coefficients, monomials))
        assert not residual.is_zero
        assert ci.find_primitive(m, residual, Grade(4, 0, 4), min_minus=4).exact


def test_find_relations_conformal4():
    # 16 c2 = 7 c1^2, with 7 = a_2 from the generating function at n = 4
    m = ci.conformal(4)
    rels = ci.find_relations(m, m.reps["tangent"], 2)
    assert [r.to_json() for r in rels] == [
        {"monomials": ["c2", "c1^2"], "coefficients": ["16", "-7"]}
    ]


def test_relation_normalization_canonical():
    m = ci.projective(3)
    for k in (2, 3):
        for r in ci.find_relations(m, m.reps["tangent"], k):
            nz = [c for c in r.coefficients if c]
            assert nz[0] > 0
            assert math.gcd(*[abs(c) for c in nz]) == 1


def test_is_closed_chern_forms():
    for m, label in [(ci.projective(2), "tangent"), (ci.g2_flag(), "graded-tangent")]:
        rep = m.reps[label]
        for k, ck in enumerate(ci.chern_forms(m, rep, min(3, rep.dim)), start=1):
            if ck.is_zero:
                continue
            ok, residual = ci.is_closed(m, ck, Grade(k, 0, k))
            assert ok and residual.is_zero


def test_is_closed_top_plus_count():
    m = ci.projective(1)
    chi_omega = Form.dual(2).wedge(Form.dual(0)).scale(1)
    ok, _ = ci.is_closed(m, chi_omega, Grade(1, 0, 1))
    assert ok


def test_find_primitive_zero_target():
    m = ci.projective(1)
    res = ci.find_primitive(m, Form.zero(), Grade(1, 0, 1))
    assert res.exact and res.psi.is_zero


def test_find_primitive_projective1_c1():
    m = ci.projective(1)
    c1 = ci.chern_forms(m, m.reps["tangent"], 1)[0]
    # inside the honest quotient (minus count >= 1) the search space is
    # span{w*}, whose differential dies: c1 is not exact there
    res = ci.find_primitive(m, c1, Grade(1, 0, 1), invariant_only=False, min_minus=1)
    assert not res.exact
    assert res.certificate["matrix_rank"] == 0
    assert res.certificate["augmented_rank"] == 1
    # with the pseudoconnection direction admitted, the transgression class
    # t_{c1} = tau tr(omega0) is a primitive
    res0 = ci.find_primitive(m, c1, Grade(1, 0, 1), min_minus=0)
    assert res0.exact
    t_c1, _ = ci.cs_class(m, m.reps["tangent"], InvPoly.chern(1))
    assert res0.psi == t_c1


def test_find_primitive_requires_positive_plus():
    m = ci.projective(1)
    with pytest.raises(ValueError):
        ci.find_primitive(m, Form.dual(1), Grade(0, 1, 0))


def test_find_primitive_grade_checked():
    m = ci.projective(1)
    with pytest.raises(ValueError):
        ci.find_primitive(m, Form.dual(1), Grade(1, 0, 1))


def test_g2_primitive_for_top_chern_simons_class():
    m = ci.g2_flag()
    rep = m.reps["graded-tangent"]
    target, grade = ci.cs_class(m, rep, parse_poly("5^5*c5-3*c1^5"))
    assert grade == Grade(4, 1, 4)
    assert len(target.terms) == 12
    ok, _ = ci.is_closed(m, target, grade)
    assert ok
    res = ci.find_primitive(m, target, grade)
    assert res.exact
    from cartan_invariants.forms import ce_differential, plus_component
    assert plus_component(m, ce_differential(m, res.psi), grade.r) == target


def test_g2_lower_relations_exact_in_trigraded_quotient():
    m = ci.g2_flag()
    rep = m.reps["graded-tangent"]
    cs = ci.chern_forms(m, rep, 4)
    c1 = cs[0]
    for k, (lhs, rhs) in {2: (25, 11), 3: (125, 13), 4: (625, 9)}.items():
        diff = cs[k - 1].scale(lhs) - c1.wedge_power(k).scale(rhs)
        assert not diff.is_zero
        res = ci.find_primitive(m, diff, Grade(k, 0, k), min_minus=k)
        assert res.exact
        # but the single Chern form is not exact there: the relation is real
        single = ci.find_primitive(m, cs[k - 1], Grade(k, 0, k), min_minus=k)
        assert not single.exact


def test_exactness_audit_projective_module():
    m = ci.projective(2)
    report = ci.exactness_audit(m, m.reps["module"])
    assert [row["k"] for row in report["degrees"]] == [1, 2, 3]
    for row in report["degrees"]:
        assert row["exact"] in (True, False)
        if row["exact"] and not row["chern_form_zero"]:
            assert row["primitive"] is not None


def test_exactness_audit_traceless_c1_vacuous():
    m = ci.grassmannian(2, 2)
    report = ci.exactness_audit(m, m.reps["module"], k_max=1)
    row = report["degrees"][0]
    assert row["chern_form_zero"] and row["exact"]


def test_exactness_audit_requires_flag():
    m = ci.projective(2)
    with pytest.raises(ValueError):
        ci.exactness_audit(m, m.reps["tangent"])


def test_exactness_audit_split_trivially_exact():
    m = ci.split_projective(2, 2)
    from cartan_invariants.model import Rep
    rep = Rep("tangent-flagged", m.reps["tangent"].matrices, m.dims[0], g_module=True)
    report = ci.exactness_audit(m, rep, k_max=3)
    assert all(row["exact"] for row in report["degrees"])


def test_foliated_relations():
    p, q = 2, 2
    m = ci.foliated_projective(p, q)
    tf = m.reps["TF"]
    cs = ci.chern_forms(m, tf, p)
    c1 = cs[0]
    # det-derived relation p^k c_k(TF) = binom(p,k) c1(TF)^k
    for k in range(1, p + 1):
        assert (cs[k - 1].scale(p ** k)
                - c1.wedge_power(k).scale(math.comb(p, k))).is_zero
    assert c1.wedge_power(q + 1).is_zero
    c1n = ci.chern_forms(m, m.reps["normal"], 1)[0]
    assert c1n.wedge_power(q + 1).is_zero
    # Baum-Bott: invariants of degree > q vanish on the normal module
    for k in (q + 1, q + 2):
        for part in partitions_of(k):
            f = InvPoly.one()
            for piece in part:
                f = f * InvPoly.trace_power(piece)
            assert ci.chern_form_of(m, m.reps["normal"], f).is_zero
    # Chern-Simons classes of degree >= q+2 vanish
    for k in (q + 2, q + 3):
        for part in partitions_of(k):
            f = InvPoly.one()
            for piece in part:
                f = f * InvPoly.trace_power(piece)
            t, _ = ci.cs_class(m, m.reps["normal"], f)
            assert t.is_zero


def test_invariant_cocycles_chern_closed():
    m = ci.projective(2)
    c2 = ci.chern_forms(m, m.reps["tangent"], 2)[1]
    cocycles = ci.invariant_cocycles(m, Grade(2, 0, 2))
    assert len(cocycles) == 1
    # c2 is proportional to the unique invariant cocycle at that grade
    (base,) = cocycles
    assert (c2.tau, base.tau) == (2, 0)
    ratio = None
    for mask, coeff in c2.terms.items():
        assert mask in base.terms
        r = coeff / base.terms[mask]
        ratio = ratio or r
        assert r == ratio


def test_parse_poly_grammar():
    p = parse_poly("5^5*c5-3*c1^5")
    assert p.degree == 5
    assert parse_poly("ch3").degree == 3
    assert parse_poly("12*c3*ch4").degree == 7
    assert parse_poly("c1^2") == InvPoly.chern(1) ** 2
    assert parse_poly("(c1+c1)^2") == (InvPoly.chern(1).scale(2)) ** 2
    with pytest.raises(ci.PolyParseError):
        parse_poly("c1 + c2")  # inhomogeneous
    with pytest.raises(ci.PolyParseError):
        parse_poly("x1")
    with pytest.raises(ci.PolyParseError):
        parse_poly("c1 *")
    with pytest.raises(ci.PolyParseError):
        parse_poly("7")  # degree zero
    for zero in ("0", "c1-c1", "0*c2"):
        with pytest.raises(ci.PolyParseError):
            parse_poly(zero)  # cancels to the zero polynomial
    assert parse_poly("c16").degree == parse_poly("c1^16").degree == 16  # at the cap


@pytest.mark.parametrize("text, message", [
    ("c", "expected index after 'c'"), ("2*cx", "expected index after 'c'"),
    ("ch", "expected index after 'ch'"), ("chx", "expected index after 'ch'"),
    ("c1h", "unexpected character 'h'")])
def test_parse_poly_token_errors(text, message):
    with pytest.raises(ci.PolyParseError, match=message):
        parse_poly(text)


@pytest.mark.parametrize("text", ["c1^99999999", "2^99999999*c1", "c99999", "ch17",
                                  "c8*c9", "(c1^4)^5", "c1^8*c1^9"])
def test_parse_poly_degree_cap(text):
    with pytest.raises(ci.PolyParseError, match="exceeds the cap 16"):
        parse_poly(text)


def test_parse_poly_digit_cap():
    """Coefficients of up to 1,000 digits parse; one more digit, from a
    literal, a product or a power, is refused, and so is an index or an
    exponent past Python's 4,300-digit int conversion limit."""
    assert parse_poly("9" * 1000 + "*c1") == InvPoly.chern(1).scale(10 ** 1000 - 1)
    assert parse_poly("((10^10)^10)^9*c1") == InvPoly.chern(1).scale(10 ** 900)
    half = "1" + "0" * 500
    for text in ("1" + "0" * 1000 + "*c1", "((10^10)^10)^10*c1", f"{half}*{half}*c1",
                 "((9^16)^16)^16*c1", "(((9^16)^16)^16)^16*c1", "9" * 5000 + "*c1",
                 "c" + "1" * 5000, "c1^" + "1" * 5000):
        with pytest.raises(ci.PolyParseError, match="cap of 1000 digits"):
            parse_poly(text)


def _searched_columns(m, grade, invariant_only, min_minus=0):
    """Induced differentials of the cochains a primitive search spans,
    recomputed apart from find_primitive."""
    deg, plus = grade.degree() - 1, grade.r - 1
    if invariant_only:
        basis = ci.invariant_basis(m, deg, plus, min_minus)
    else:
        basis = [Form.monomial(mask) for mask in ci.monomial_masks(m, deg, plus, min_minus)]
    return [ci.plus_component(m, ci.ce_differential(m, b), grade.r).coefficients()
            for b in basis]


@pytest.mark.parametrize("n, invariant_only", [(3, False), (5, True)])
def test_not_exact_witness_rechecks(n, invariant_only):
    m = ci.projective(n)
    xi, grade = ci.cs_class(m, m.reps["tangent"], parse_poly("c3"))
    res = ci.find_primitive(m, xi, grade, invariant_only=invariant_only)
    assert not res.exact and res.witness
    assert "witness" not in res.certificate
    b = xi.coefficients(res.certificate["tau_exponent"])
    columns = _searched_columns(m, grade, invariant_only)
    assert len(columns) == res.searched_dimension
    assert is_fredholm_witness(columns, b, res.witness)


def test_projective5_top_class_not_exact():
    # the degree-8 invariant search space of this target is 2-dimensional;
    # enumerating by Cartan weight builds 740 of its 1,425,060 monomials
    m = ci.projective(5)
    xi, grade = ci.cs_class(m, m.reps["tangent"], parse_poly("c5"))
    assert grade == Grade(4, 1, 4)
    res = ci.find_primitive(m, xi, grade)
    assert not res.exact
    assert (res.certificate["matrix_rank"], res.certificate["augmented_rank"]) == (1, 2)
    assert res.searched_dimension == 2


def test_exact_result_has_no_witness():
    m = ci.projective(1)
    c1 = ci.chern_forms(m, m.reps["tangent"], 1)[0]
    res = ci.find_primitive(m, c1, Grade(1, 0, 1), min_minus=0)
    assert res.exact and res.witness is None


def test_find_primitive_eliminates_once_per_tau_exponent(monkeypatch):
    from cartan_invariants import linalg
    m3 = ci.projective(3)
    xi, grade = ci.cs_class(m3, m3.reps["tangent"], parse_poly("c3"))
    m1 = ci.projective(1)
    c1 = ci.chern_forms(m1, m1.reps["tangent"], 1)[0]
    with pytest.raises(ValueError):
        c1 + c1.tau_shift(1)
    calls = []
    real = linalg._echelon

    def counting(rows):
        calls.append(1)
        return real(rows)

    monkeypatch.setattr(linalg, "_echelon", counting)
    res = ci.find_primitive(m3, xi, grade, invariant_only=False)
    assert not res.exact and len(calls) == 2  # the search, then the witness
    calls.clear()
    res = ci.find_primitive(m1, c1, Grade(1, 0, 1), invariant_only=False)
    assert res.exact and len(calls) == 1  # a form has one tau exponent


def _per_form_primitive(m, xi, grade, min_minus=0):
    """The monomial-basis search as it was built before the one-pass columns:
    a one-term Form and a ce_differential per monomial, columns ``d.nums``,
    and psi = sum_j x_j d_j.den b_j through ``combination``."""
    from cartan_invariants.forms import combination
    from cartan_invariants.linalg import fredholm_witness, solve
    basis = [Form.monomial(mask)
             for mask in ci.monomial_masks(m, grade.degree() - 1, grade.r - 1, min_minus)]
    diffs = [ci.ce_differential(m, b, grade.r) for b in basis]
    columns = [d.nums for d in diffs]
    b = xi.coefficients(xi.tau)
    x, rank = solve(columns, b)
    n = len(basis)
    if x is None:
        return ("not_exact", None, n, {"matrix_rank": rank, "augmented_rank": rank + 1,
                                       "columns": n, "tau_exponent": xi.tau},
                fredholm_witness(columns, b))
    psi = combination((c * diffs[j].den, basis[j]) for j, c in x.items()).tau_shift(xi.tau)
    return ("exact", psi, n, {"matrix_rank": rank, "columns": n}, None)


def _primitive_targets(m, rep):
    """(xi, grade) pairs to search: the nonzero Chern forms c_1, c_2 at
    (k, 0, k), then the transgression classes of c2 and c1^2."""
    out = [(ck, Grade(k, 0, k)) for k, ck in enumerate(ci.chern_forms(m, rep, min(2, rep.dim)), 1)
           if not ck.is_zero]
    return out + [ci.cs_class(m, rep, parse_poly(poly)) for poly in ("c2", "c1^2")]


def test_monomial_search_matches_the_per_form_path():
    """find_primitive over the monomial basis gives the same status, psi,
    certificate, searched dimension and witness (keys in order) as the
    per-Form path, on all seven families and the g2 target of the CLI."""
    models = [ci.projective(3), ci.grassmannian(2, 2), ci.lagrangian_grassmannian(2),
              ci.conformal(3), ci.foliated_projective(1, 1), ci.split_projective(1, 2),
              ci.g2_flag()]
    assert len({m.meta["family"] for m in models}) == len(ci.FAMILIES)
    g2 = models[-1]
    reps = [m.reps.get("tangent") or m.reps["graded-tangent"] for m in models]
    cases = [(m, *target) for m, rep in zip(models, reps) for target in _primitive_targets(m, rep)]
    cases.append((g2, *ci.cs_class(g2, g2.reps["graded-tangent"], parse_poly("5^5*c5-3*c1^5"))))
    statuses = []
    for m, xi, grade in cases:
        for min_minus in range(3):
            res = ci.find_primitive(m, xi, grade, invariant_only=False, min_minus=min_minus)
            status, psi, n, certificate, witness = _per_form_primitive(m, xi, grade, min_minus)
            case = (m.meta["family"], grade.as_tuple(), min_minus)
            assert (res.status, res.searched_dimension, res.certificate) == (
                status, n, certificate), case
            assert res.psi == psi and (psi is None or res.psi.tau == psi.tau), case
            assert res.witness == witness and list(res.witness or ()) == list(witness or ()), case
            statuses.append(status)
    assert statuses[-3:] == ["exact"] * 3
    assert min(statuses.count("exact"), statuses.count("not_exact")) >= 15, statuses


@pytest.mark.parametrize("exact", [True, False])
def test_monomial_search_builds_no_form_per_monomial(monkeypatch, exact):
    """A --no-invariant search, and then an invariant one, read their columns
    off dual_d: no one-term Form per monomial, no Form per basis vector, and
    ce_differential runs only to re-check an exact psi."""
    from cartan_invariants import forms, relations
    if exact:  # c2 of grassmannian(2,2) over 220 monomials
        m = ci.grassmannian(2, 2)
        xi, grade = ci.chern_forms(m, m.reps["tangent"], 2)[1], Grade(2, 0, 2)
    else:  # the transgression class of c3 of projective(3), over 660
        m = ci.projective(3)
        xi, grade = ci.cs_class(m, m.reps["tangent"], parse_poly("c3"))
    calls = {"monomial": 0, "ce_differential": 0}
    monomial, differential = Form.monomial.__func__, forms.ce_differential

    def counted_monomial(cls, *args, **kwargs):
        calls["monomial"] += 1
        return monomial(cls, *args, **kwargs)

    def counted_differential(*args, **kwargs):
        calls["ce_differential"] += 1
        return differential(*args, **kwargs)

    monkeypatch.setattr(Form, "monomial", classmethod(counted_monomial))
    for module in (forms, relations):
        monkeypatch.setattr(module, "ce_differential", counted_differential)
    res = ci.find_primitive(m, xi, grade, invariant_only=False)
    assert res.exact == exact and res.searched_dimension > 200
    assert calls == {"monomial": 0, "ce_differential": int(exact)}
    calls.update(monomial=0, ce_differential=0)
    res = ci.find_primitive(m, xi, grade)
    assert res.exact == exact and res.searched_dimension > 1
    assert calls == {"monomial": 0, "ce_differential": int(exact)}

