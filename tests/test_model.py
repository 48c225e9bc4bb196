import copy
import os
import pickle
import random
from fractions import Fraction as F
from functools import partial

import pytest

from cartan_invariants import Part, projective, validate_model, validate_rep
from cartan_invariants.forms import Form, Grade, ce_differential
from cartan_invariants.model import LieModel, Rep, ValidationReport, sparse_commutator
from cartan_invariants.modelio import parse_model_file
from cartan_invariants.relations import PrimitiveResult, Relation
from conftest import coadjoint, sl2_corrupted


def test_sl2_validates(sl2):
    report = validate_model(sl2)
    assert report.ok, report.failures


def test_corrupted_sl2_reports_jacobi_failure():
    report = validate_model(sl2_corrupted())
    assert not report.ok
    assert any(f["check"] == "jacobi" for f in report.failures)


def test_langlands_condition_failure_reported():
    # make [g0, g0] leak into g-: [h, h'] cannot happen with one generator,
    # so corrupt [g0, g+] instead: [h, e] = f has a minus component.
    from cartan_invariants.model import LieModel
    m = LieModel((1, 1, 1), ["f*", "h*", "e*"], {(1, 2): {0: F(1)}})
    report = validate_model(m)
    assert any(f["check"] == "langlands" for f in report.failures)


def _triple_loop_jacobi(m):
    """The Jacobi failures of ``validate_model`` computed bracket by bracket
    over every triple i < j < k: the oracle of its d^2 = 0 check."""
    failures = []
    n = m.total
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                acc = {}
                for inner, outer in (((j, k), i), ((k, i), j), ((i, j), k)):
                    for mid, c in m.bracket_basis(*inner).items():
                        for t, c2 in m.bracket_basis(outer, mid).items():
                            acc[t] = acc.get(t, F(0)) + c * c2
                bad = {t: c for t, c in acc.items() if c}
                if bad:
                    failures.append({"check": "jacobi", "detail": (
                        f"jacobi({m.names[i]},{m.names[j]},{m.names[k]}) = "
                        + " + ".join(f"{c}*{m.names[t]}" for t, c in sorted(bad.items())))})
    return failures


def _table_walk_langlands(m):
    """The Langlands faults as the eight bracket-vanishing conditions find
    them, each over every ordered generator pair of its two parts: (i, j, k, c)
    for a component c*e_k of [e_i, e_j] in the part the condition forbids."""
    conditions = [
        (Part.ZERO, Part.ZERO, Part.MINUS),
        (Part.ZERO, Part.PLUS, Part.MINUS),
        (Part.PLUS, Part.PLUS, Part.MINUS),
        (Part.PLUS, Part.PLUS, Part.ZERO),
        (Part.ZERO, Part.MINUS, Part.ZERO),
        (Part.ZERO, Part.MINUS, Part.PLUS),
        (Part.ZERO, Part.ZERO, Part.PLUS),
        (Part.ZERO, Part.PLUS, Part.ZERO),
    ]
    return [(i, j, k, c) for pa, pb, bad in conditions
            for i in m.part_range(pa) for j in m.part_range(pb)
            for k, c in m.bracket_basis(i, j).items() if m.part_of(k) == bad]


def _assert_jacobi_matches_oracle(m):
    """validate_model's failures are the table walk's Langlands faults, each
    pair in stored order (i < j) and once, in pair order, then the triple
    loop's Jacobi failures."""
    report = validate_model(m)
    faults = {(min(i, j), max(i, j), k, c if i < j else -c)
              for i, j, k, c in _table_walk_langlands(m)}
    faults = sorted(faults, key=lambda t: (t[0], t[1], list(m.brackets[t[:2]]).index(t[2])))
    langlands = [{"check": "langlands", "detail": f"[{m.names[i]},{m.names[j]}] has "
                  f"{m.part_of(k).name.lower()}-component {c}*{m.names[k]}"}
                 for i, j, k, c in faults]
    assert report.failures == langlands + _triple_loop_jacobi(m)
    assert report.ok == (not report.failures)
    return report


def _corrupted(m, rng):
    """m with one to three bracket entries changed, added or removed, and
    some new coefficients fractional."""
    brackets = {pair: dict(comp) for pair, comp in m.brackets.items()}
    for _ in range(rng.randint(1, 3)):
        c = F(rng.choice([-3, -1, 1, 2]), rng.choice([1, 1, 2, 3]))
        if brackets and rng.random() < 0.6:
            pair = rng.choice(sorted(brackets))
            k = rng.choice(sorted(brackets[pair]) + [rng.randrange(m.total)])
        else:
            i, j = sorted(rng.sample(range(m.total), 2))
            pair, k = (i, j), rng.randrange(m.total)
        comp = brackets.setdefault(pair, {})
        comp[k] = 0 if rng.random() < 0.2 else comp.get(k, 0) + c
    return LieModel(m.dims, m.names, brackets)


def test_jacobi_check_matches_the_triple_loop_oracle():
    """validate_model's failures equal those of the eight-condition table walk
    and the bracket-by-bracket triple loop, text and order alike: on a model
    of every family, on 240 seeded corruptions of them, which break the
    splitting in each constrained part pair, and on the projective(1) file
    with [z1,u1] = -3*u1."""
    import cartan_invariants as ci
    models = [ci.projective(3), ci.grassmannian(2, 2), ci.lagrangian_grassmannian(2),
              ci.conformal(3), ci.foliated_projective(1, 1), ci.split_projective(1, 2),
              ci.g2_flag()]
    assert len({m.meta["family"] for m in models}) == len(ci.FAMILIES)
    for m in models:
        assert _assert_jacobi_matches_oracle(m).ok
    rng = random.Random(2048)
    failing = fractional = 0
    split_pairs = set()
    for seed in range(240):
        m = _corrupted(models[seed % len(models)], rng)
        report = _assert_jacobi_matches_oracle(m)
        failing += any(f["check"] == "jacobi" for f in report.failures)
        fractional += any("/" in f["detail"] for f in report.failures if f["check"] == "jacobi")
        split_pairs |= {frozenset((m.part_of(i), m.part_of(j)))
                        for i, j, _, _ in _table_walk_langlands(m)}
    assert failing >= 200 and fractional >= 20, (failing, fractional)
    assert split_pairs == {frozenset(pair) for pair in (
        (Part.ZERO,), (Part.ZERO, Part.PLUS), (Part.PLUS,), (Part.MINUS, Part.ZERO))}
    path = os.path.join(os.path.dirname(__file__), "data", "projective1.json")
    file_model = parse_model_file(path)
    z1, u1 = (file_model.names.index(name) for name in ("z1", "u1"))
    assert file_model.brackets[(z1, u1)] == {u1: F(-2)}
    brackets = dict(file_model.brackets) | {(z1, u1): {u1: F(-3)}}
    report = _assert_jacobi_matches_oracle(LieModel(file_model.dims, file_model.names, brackets))
    assert report.failures == [{"check": "jacobi", "detail": "jacobi(w1,z1,u1) = -1*z1"}]


def test_validate_model_reads_brackets_only_for_the_splitting_checks(monkeypatch):
    """validate_model makes no bracket_basis call: the splitting check walks
    the stored brackets, and the Jacobi check reads the dual_d table."""
    m = projective(8)
    calls = []
    bracket_basis = LieModel.bracket_basis

    def counted(self, i, j):
        calls.append((i, j))
        return bracket_basis(self, i, j)

    monkeypatch.setattr(LieModel, "bracket_basis", counted)
    assert validate_model(m).ok
    assert calls == []


def test_bracket_examples(sl2):
    f, h, e = 0, 1, 2
    assert sl2.bracket_basis(e, f) == {h: F(1)}  # [e,f] = h
    assert sl2.bracket_basis(h, e) == {e: F(2)}  # [h,e] = 2e
    assert sl2.bracket_basis(h, f) == {f: F(-2)}  # [h,f] = -2f
    for i in range(3):
        assert sl2.bracket_basis(i, i) == {}
        for j in range(3):
            assert sl2.bracket_basis(j, i) == {k: -c for k, c in sl2.bracket_basis(i, j).items()}


def test_coadjoint_on_duals(sl2):
    eta = Form.dual(1)
    chi = Form.dual(2)
    omega = Form.dual(0)
    assert coadjoint(sl2, 1, eta).is_zero
    assert coadjoint(sl2, 1, chi) == chi.scale(-2)
    assert coadjoint(sl2, 1, omega) == omega.scale(2)


def test_coadjoint_is_derivation(sl2):
    rng = random.Random(5)
    op = partial(coadjoint, sl2, 1)
    gens = [Form.dual(i) for i in range(3)]
    for _ in range(20):
        xi = gens[rng.randrange(3)].scale(F(rng.randint(-3, 3)))
        zeta = gens[rng.randrange(3)].scale(F(rng.randint(-3, 3)))
        lhs = op(xi.wedge(zeta))
        rhs = op(xi).wedge(zeta) + xi.wedge(op(zeta))
        assert lhs == rhs


def test_coadjoint_commutes_with_ce_differential():
    m = projective(2)
    for u in m.part_range(Part.ZERO):
        for g in range(m.total):
            xi = Form.dual(g)
            assert (coadjoint(m, u, ce_differential(m, xi))
                    == ce_differential(m, coadjoint(m, u, xi)))


def test_coadjoint_table_refuses_a_generator_out_of_range():
    m = projective(2)
    assert m.coadjoint_table(0) and m.coadjoint_table(m.total - 1)
    for u in (-1, m.total, -m.total - 1):
        with pytest.raises(IndexError, match=f"no generator {u}"):
            m.coadjoint_table(u)


def test_rep_consistency_all_builtin():
    m = projective(2)
    for rep in m.reps.values():
        assert validate_rep(m, rep).ok, rep.label


def test_validate_rep_reports_a_corrupted_entry():
    m = projective(2)
    good = m.reps["tangent"]
    mats = [dict(mat) for mat in good.matrices]
    mats[1][(0, 1)] = mats[1].get((0, 1), 0) + 1
    report = validate_rep(m, Rep("bent", mats, good.dim))
    assert not report.ok
    assert all(f["check"] == "rep" for f in report.failures)


def _entries(rows):
    """The nonzero entries of a dense matrix as a {(i, j): x} map."""
    return {(i, j): x for i, row in enumerate(rows) for j, x in enumerate(row) if x}


def test_sparse_commutator_matches_dense():
    rng = random.Random(29)
    for _ in range(100):
        n = rng.randint(1, 5)
        a, b = ([[F(rng.choice((0, 0, 0, 1, -2, 3)), rng.randint(1, 4)) for _ in range(n)]
                 for _ in range(n)] for _ in range(2))
        dense = [[sum((a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(n)), F(0))
                  for j in range(n)] for i in range(n)]
        assert sparse_commutator(_entries(a), _entries(b)) == _entries(dense)


def test_rep_dim_is_explicit_without_matrices():
    assert Rep("V", [], 2).dim == 2
    assert Rep("V", [{(0, 0): 1, (1, 1): 1}], 2).dim == 2
    with pytest.raises(TypeError):
        Rep("V", [])  # dim is a required argument
    with pytest.raises(ValueError):
        Rep("V", [{(0, 0): 1, (1, 1): 1}], 1)


def test_rep_rejects_an_entry_outside_dim():
    for key in ((2, 0), (0, 2), (-1, 1), (1, -1)):
        with pytest.raises(ValueError, match="outside 2x2"):
            Rep("V", [{(0, 0): 1}, {key: 1}], 2)


def test_rep_drops_zero_entries():
    rep = Rep("V", [{(0, 0): 0, (0, 1): F(0), (1, 0): 3}, {(1, 1): F(0)}], 2)
    assert rep.matrices == [{(1, 0): F(3)}, {}]
    assert type(rep.matrices[0][(1, 0)]) is F


def test_rep_act_is_the_entrywise_sum_over_the_g0_basis():
    rng = random.Random(31)
    m = projective(2, o_weights=(1, -2))
    for rep in m.reps.values():
        for _ in range(10):
            # a sparse vector over all of g: act reads its g0-part alone
            v = {g: F(rng.choice((1, -2, 3)), rng.randint(1, 3))
                 for g in range(m.total) if rng.random() < 0.5}
            coeffs = [v.get(g, 0) for g in m.part_range(Part.ZERO)]
            dense = [[sum((c * mat.get((i, j), 0) for c, mat in zip(coeffs, rep.matrices)), F(0))
                      for j in range(rep.dim)] for i in range(rep.dim)]
            assert rep.act(m, v) == _entries(dense), rep.label


def test_projective_bracket_plus_minus_lands_in_h_complement():
    m = projective(2)
    for x in m.part_range(Part.PLUS):
        for y in m.part_range(Part.MINUS):
            comp = m.bracket_basis(x, y)
            assert all(m.part_of(k) != Part.PLUS for k in comp), (x, y)


def test_frozen_value_classes():
    """Grade compares and hashes by its fields, refuses assignment, and is
    not a plain tuple."""
    fields = (1, 0, 2)
    value = Grade(*fields)
    assert value == Grade(*fields) and hash(value) == hash(Grade(*fields))
    assert value != Grade(1, 0, 3) and value != fields and fields != value
    assert {value: 1}[Grade(*fields)] == 1
    assert copy.copy(value) == value == pickle.loads(pickle.dumps(value))
    with pytest.raises(AttributeError):
        value.name = "x"
    with pytest.raises(AttributeError):
        del value.name
    grade = Grade(p=1, q=0, r=2)
    with pytest.raises(AttributeError):
        grade.r = 3
    assert grade.as_tuple() == (1, 0, 2) and grade.raised() == Grade(1, 0, 3)
    assert repr(grade) == "Grade(p=1, q=0, r=2)"


def test_mutable_value_classes():
    """ValidationReport, Relation and PrimitiveResult compare by their
    fields and are unhashable; each report gets its own failures list."""
    first, second = ValidationReport(ok=True), ValidationReport(ok=True)
    assert first == second
    first.add("jacobi", "detail")
    assert (second.ok, second.failures) == (True, [])
    assert (first.ok, first.failures) == (False, [{"check": "jacobi", "detail": "detail"}])
    assert first != second
    assert repr(second) == "ValidationReport(ok=True, failures=[])"
    relation = Relation(2, ((2,), (1, 1)), (1, -3))
    assert relation == Relation(2, ((2,), (1, 1)), (1, -3)) != Relation(2, ((2,),), (1,))
    assert relation.nonzero() == [((2,), 1), ((1, 1), -3)]
    grade = Grade(1, 0, 1)
    exact = PrimitiveResult("exact", Form.zero(), grade, 3, {"columns": 3})
    assert exact.witness is None and exact.exact
    witness = {5: F(1, 2)}
    not_exact = PrimitiveResult("not_exact", None, grade, 3, {}, witness=witness)
    assert not_exact.witness == witness and not not_exact.exact
    assert not_exact == PrimitiveResult("not_exact", None, grade, 3, {}, witness)
    for value in (first, relation, exact):
        with pytest.raises(TypeError):
            hash(value)
