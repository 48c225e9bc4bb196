from fractions import Fraction as F

import pytest

import cartan_invariants as ci
from cartan_invariants import Part, validate_model, validate_rep
from cartan_invariants.forms import Form, Grade, quotient_d, mask_bits
from cartan_invariants.modelio import emit_model_json
from cartan_invariants.models import _model_from_matrices
from chevalley_oracle import g2_chevalley_flag
from dense_oracle import rref_rows

BUILTIN = [
    ("projective", dict(n=1)), ("projective", dict(n=2)), ("projective", dict(n=3)),
    ("projective", dict(n=4)), ("projective", dict(n=5)),
    ("grassmannian", dict(p=1, q=1)), ("grassmannian", dict(p=2, q=2)),
    ("grassmannian", dict(p=2, q=3)),
    ("lagrangian", dict(n=1)), ("lagrangian", dict(n=2)),
    ("conformal", dict(n=3)), ("conformal", dict(n=4)), ("conformal", dict(n=5)),
    ("foliated", dict(p=1, q=1)), ("foliated", dict(p=2, q=2)),
    ("split", dict(p=1, q=1)), ("split", dict(p=2, q=2)),
    ("g2", dict()),
]


@pytest.mark.parametrize("family,params", BUILTIN)
def test_builtin_models_validate(family, params):
    m = ci.build_model(family, **params)
    report = validate_model(m)
    assert report.ok, report.failures[:3]
    for rep in m.reps.values():
        assert validate_rep(m, rep).ok, rep.label


def test_dimension_counts():
    assert ci.projective(2).dims == (2, 4, 2)
    assert ci.projective(2).total == 8  # dim sl(3)
    assert ci.grassmannian(2, 3).dims == (6, 12, 6)
    assert ci.lagrangian_grassmannian(2).dims == (3, 4, 3)
    assert ci.lagrangian_grassmannian(2).total == 10  # dim sp(4)
    assert ci.conformal(3).dims == (3, 4, 3)
    assert ci.conformal(3).total == 10  # dim so(5)
    assert ci.split_projective(2, 2).dims == (4, 8, 0)
    assert ci.g2_flag().dims == (5, 4, 5)
    p, q = 2, 2
    assert ci.foliated_projective(p, q).total == (p + q + 1) ** 2 - 1 - p * (q + 1)


def test_projective1_is_sl2():
    m = ci.projective(1)
    # [z1, u1] = -2 u1, [z1, w1] = 2 w1, [u1, w1] = -z1 in this realization
    assert m.bracket_basis(1, 2) == {2: F(-2)}
    assert m.bracket_basis(1, 0) == {0: F(2)}
    assert m.bracket_basis(2, 0) == {1: F(-1)}


def test_grassmannian_1n_equals_projective_table():
    for n in (2, 3):
        g = ci.grassmannian(1, n)
        p = ci.projective(n)
        assert g.dims == p.dims
        assert g.brackets == p.brackets
        assert g.reps["tangent"].matrices == p.reps["tangent"].matrices


def test_lagrangian1_isomorphic_to_projective1():
    lag = ci.lagrangian_grassmannian(1)
    pro = ci.projective(1)
    # generator map (f, h, e) -> (f, -h, e)
    def flip(table):
        out = {}
        for (i, j), comp in table.items():
            s = (-1 if i == 1 else 1) * (-1 if j == 1 else 1)
            out[(i, j)] = {k: c * s * (-1 if k == 1 else 1) for k, c in comp.items()}
        return out
    assert flip(lag.brackets) == pro.brackets


def _atiyah_tensor(m, rep, x, y):
    """a(x, y) as a matrix over the g- basis, from the structure constants."""
    rho = rep.act(m, m.bracket_basis(x, y))
    return [[-rho.get((i, j), 0) for j in range(rep.dim)] for i in range(rep.dim)]


def test_projective_tangent_atiyah_tensor():
    # a(x,y)z = z(x.y) + y(x.z) for all basis triples
    for n in (2, 3):
        m = ci.projective(n)
        rep = m.reps["tangent"]
        for a in range(n):
            x = m.gid(Part.PLUS, a)
            for b in range(n):
                amat = _atiyah_tensor(m, rep, x, m.gid(Part.MINUS, b))
                for c in range(n):
                    got = [amat[i][c] for i in range(n)]
                    want = [F(int(i == c) * int(a == b) + int(i == b) * int(a == c))
                            for i in range(n)]
                    assert got == want


def test_grassmannian_tangent_atiyah_tensor():
    # a(x, y1) y2 = y1 x y2 + y2 x y1 as maps U -> Q.  The displayed
    # -y1xy2 + y2xy1 is antisymmetric in (y1, y2) and vanishes for p = q = 1,
    # contradicting the nonzero projective-line Atiyah form, so the verified
    # sign is the symmetric one.
    for (p, q) in [(2, 2), (2, 3)]:
        m = ci.grassmannian(p, q)
        rep = m.reps["tangent"]

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

        for xi in range(p * q):
            x = m.gid(Part.PLUS, xi)
            X = mat_plus(xi)
            for y1 in range(p * q):
                amat = _atiyah_tensor(m, rep, x, m.gid(Part.MINUS, y1))
                Y1 = mat_minus(y1)
                for y2 in range(p * q):
                    Y2 = mat_minus(y2)
                    s = mul(mul(Y1, X), Y2)
                    t = mul(mul(Y2, X), Y1)
                    want = [F(s[I][j] + t[I][j]) for I in range(q) for j in range(p)]
                    got = [amat[i][y2] for i in range(p * q)]
                    assert got == want


def test_lagrangian_tangent_atiyah_tensor():
    n = 2
    m = ci.lagrangian_grassmannian(n)
    rep = m.reps["tangent"]
    pairs = [(a, b) for a in range(n) for b in range(a, n)]

    def sym(idx):
        a, b = pairs[idx]
        out = [[0] * n for _ in range(n)]
        out[a][b] += 1
        out[b][a] += 1
        if a == b:
            out[a][a] = 1
        return out

    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    for xi in range(len(pairs)):
        x = m.gid(Part.PLUS, xi)
        X = sym(xi)
        for y1 in range(len(pairs)):
            amat = _atiyah_tensor(m, rep, x, m.gid(Part.MINUS, y1))
            Y1 = sym(y1)
            for y2 in range(len(pairs)):
                Y2 = sym(y2)
                s = mul(mul(Y1, X), Y2)
                t = mul(mul(Y2, X), Y1)
                tot = [[s[i][j] + t[i][j] for j in range(n)] for i in range(n)]
                want = [F(tot[a][b]) for (a, b) in pairs]
                got = [amat[i][y2] for i in range(len(pairs))]
                assert got == want


def test_conformal_three_term_tensor():
    for n in (3, 4):
        m = ci.conformal(n)
        rep = m.reps["tangent"]
        P = m.meta["plus_transport"]
        Q = m.meta["pairing"]
        for a in range(n):
            x = m.gid(Part.PLUS, a)
            px = [P[i][a] for i in range(n)]
            for b1 in range(n):
                amat = _atiyah_tensor(m, rep, x, m.gid(Part.MINUS, b1))
                for b2 in range(n):
                    got = [amat[i][b2] for i in range(n)]
                    q_px_y1 = sum(px[i] * Q[i][b1] for i in range(n))
                    q_px_y2 = sum(px[i] * Q[i][b2] for i in range(n))
                    q_y1_y2 = Q[b1][b2]
                    # a(x,y1)y2 = -q(Px,y1) y2 - q(Px,y2) y1 - q(y1,y2) (-Px)
                    want = [
                        -q_px_y1 * int(i == b2) - q_px_y2 * int(i == b1)
                        + q_y1_y2 * px[i]
                        for i in range(n)
                    ]
                    assert got == want


def test_split_projective_flat():
    m = ci.split_projective(2, 2)
    assert ci.atiyah_form(m, m.reps["tangent"]).is_zero()
    assert all(c.is_zero for c in ci.chern_forms(m, m.reps["tangent"], 4))


def test_g2_quotient_d_patterns():
    m = ci.g2_flag()
    names = m.names

    def support(i, grade):
        d = quotient_d(m, Form.dual(i), grade)
        out = set()
        for mask in d.terms:
            out.add(tuple(names[b] for b in mask_bits(mask)))
        return out

    g_minus = Grade(1, 0, 0)
    assert support(0, g_minus) == set()
    assert support(1, g_minus) == set()
    assert support(2, g_minus) == {("w1", "u1"), ("w2", "u2")}
    assert support(3, g_minus) == {("w1", "u3"), ("w3", "u2")}
    assert support(4, g_minus) == {("w2", "u3"), ("w3", "u1")}
    g_plus = Grade(0, 0, 1)
    assert support(9, g_plus) == set()
    assert support(10, g_plus) == set()
    assert support(11, g_plus) == {("u1", "u2")}
    assert support(12, g_plus) == {("u1", "u3")}
    assert support(13, g_plus) == {("u2", "u3")}


def test_g2_matrices_match_chevalley_assembly():
    """The matrices on the 7-dimensional module give the bracket table that
    the Chevalley basis, built from the G2 Cartan data alone, assembles."""
    m, oracle = ci.g2_flag(), g2_chevalley_flag()
    assert m.brackets == oracle.brackets
    assert emit_model_json(m) == emit_model_json(oracle)
    assert validate_model(oracle).ok


def test_tangent_rep_block_must_be_invariant():
    m = ci.projective(2)
    assert ci.tangent_rep(m, "all", 0, 2).matrices == m.reps["tangent"].matrices
    with pytest.raises(ValueError, match=r"minus block \[0,1\) not g0-invariant"):
        ci.tangent_rep(m, "first", 0, 1)


def test_g2_graded_tangent_block_pattern():
    m = ci.g2_flag()
    rep = m.reps["graded-tangent"]
    h1, h2, e, f = rep.matrices
    assert [h1.get((i, i), 0) for i in range(5)] == [F(2), F(1), F(1), F(1), F(0)]
    assert [h2.get((i, i), 0) for i in range(5)] == [F(1), F(2), F(1), F(0), F(1)]
    # long-root vectors couple only inside the 2x2 blocks
    for mat in (e, f):
        for i, j in mat:
            assert {i, j} in ({0, 1}, {3, 4})


def test_g2_cartan_three_form_support():
    # unique closed invariant form at grade (1,1,1); support matches the
    # classical 15-monomial display up to generator rescaling
    m = ci.g2_flag()
    cocycles = ci.invariant_cocycles(m, Grade(1, 1, 1))
    assert len(cocycles) == 1
    got = {tuple(m.names[b] for b in mask_bits(mask)) for mask in cocycles[0].terms}
    rows = ["w4 z1 u1", "w5 z3 u1", "w4 z4 u2", "w5 z2 u2", "w4 w5 u3",
            "w3 z1 u3", "w3 z2 u3", "w3 w4 u4", "w1 z1 u4", "w2 z3 u4",
            "w1 z2 u4", "w3 w5 u5", "w2 z1 u5", "w1 z4 u5", "w2 z2 u5"]
    want = {tuple(sorted(r.split(), key=m.names.index)) for r in rows}
    assert got == want


def test_foliated_chern_shapes():
    p, q = 2, 2
    m = ci.foliated_projective(p, q)
    c1tf = ci.chern_forms(m, m.reps["TF"], 1)[0]
    # c1(TF) = tau p sum_K u_K ^ w_K over the q normal-column pairs
    expected = Form.zero()
    for K in range(q):
        u = Form.dual(m.gid(Part.PLUS, K))
        w = Form.dual(m.gid(Part.MINUS, p + K))
        expected = expected + u.wedge(w)
    assert c1tf == expected.scale(p).tau_shift(1)
    c1n = ci.chern_forms(m, m.reps["normal"], 1)[0]
    assert (c1n.scale(p) - c1tf.scale(q + 1)).is_zero


def test_builder_params_validated():
    with pytest.raises(ValueError):
        ci.projective(0)
    with pytest.raises(ValueError):
        ci.conformal(2)
    with pytest.raises(ValueError):
        ci.build_model("nonsense")
    # one generator over the cap of 300 or more, refused before anything is built
    for build in (lambda: ci.projective(17), lambda: ci.grassmannian(8, 10),
                  lambda: ci.lagrangian_grassmannian(13), lambda: ci.conformal(24),
                  lambda: ci.foliated_projective(1, 17), lambda: ci.split_projective(12, 12)):
        with pytest.raises(ValueError, match="generators, more than the 300"):
            build()
    # o_weights up to MAX_O_WEIGHTS, repeats included, and not one more
    assert len(ci.projective(1, o_weights=(2,) * 64).reps) == 5
    with pytest.raises(ValueError, match="65 o_weights, more than the 64"):
        ci.projective(1, o_weights=(2,) * 65)


# -- oracle: the sparse structure-constant solve against the dense one ---------


def _dense(mats):
    """The sparse matrices as dense lists of rows of one common size."""
    n = 1 + max(max(key) for mat in mats for key in mat)
    return [[[F(mat.get((i, j), 0)) for j in range(n)] for i in range(n)] for mat in mats]


def _dense_commutator(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(n)), F(0))
             for j in range(n)] for i in range(n)]


def _dense_brackets(matrices):
    """Every commutator against the basis by one dense rref over all cells."""
    total, n = len(matrices), len(matrices[0])
    pairs = [(i, j) for i in range(total) for j in range(i + 1, total)]
    comms = [_dense_commutator(matrices[i], matrices[j]) for i, j in pairs]
    red, pivots = rref_rows([[m[r][c] for m in matrices + comms]
                             for r in range(n) for c in range(n)], total + len(pairs))
    assert pivots == list(range(total))
    brackets = {}
    for col, pair in enumerate(pairs, start=total):
        comp = {p: red[row][col] for row, p in enumerate(pivots) if red[row][col]}
        if comp:
            brackets[pair] = comp
    return brackets


# every family is realized by matrices; g2, the last BUILTIN case, comes last
# here too, so the parametrized ids of the other cases keep their numbers
ORACLE_GRID = BUILTIN[:-1] + [
    ("grassmannian", dict(p=1, q=3)), ("grassmannian", dict(p=3, q=2)),
    ("lagrangian", dict(n=3)), ("conformal", dict(n=6)), ("foliated", dict(p=1, q=2)),
    ("split", dict(p=1, q=3)),
] + BUILTIN[-1:]


@pytest.mark.parametrize("family,params", ORACLE_GRID)
def test_sparse_bracket_table_matches_dense_rref(family, params):
    m = ci.build_model(family, **params)
    assert m.brackets == _dense_brackets(_dense(m.realization))
    assert list(m.brackets) == sorted(m.brackets)
    assert [list(c) for c in m.brackets.values()] == [
        sorted(c) for c in m.brackets.values()]
    assert all(type(c) is F for comp in m.brackets.values() for c in comp.values())
    assert all(type(x) is F for rep in m.reps.values() for mat in rep.matrices
               for x in mat.values())


# x = E00 + E22 and y = E22 are diagonal and meet at index 2, so they are
# commuted but commute; y and z = E10 have disjoint supports and are not
# commuted; xz = 0 and zx = z, so [x, z] = -z
X, Y, Z = {(0, 0): 1, (2, 2): 1}, {(2, 2): 1}, {(1, 0): 1}


@pytest.mark.parametrize("mats,commuted,brackets", [
    ([X, Y, Z], [(0, 1), (0, 2)], {(0, 2): {2: F(-1)}}),
    ([Z, Y, X], [(0, 2), (1, 2)], {(0, 2): {0: F(1)}}),
], ids=["AB-zero", "BA-zero"])
def test_model_from_matrices_commutes_only_meeting_supports(monkeypatch, mats, commuted,
                                                            brackets):
    from cartan_invariants import models
    calls = []
    commutator = models.sparse_commutator
    monkeypatch.setattr(models, "sparse_commutator",
                        lambda a, b, *rows: calls.append((a, b)) or commutator(a, b, *rows))
    m = _model_from_matrices((1, 1, 1), mats, ["w1", "z1", "u1"], {})
    assert m.brackets == brackets
    assert calls == [(mats[i], mats[j]) for i, j in commuted]


def test_model_from_matrices_errors():
    e00, e01, e10 = {(0, 0): F(1)}, {(0, 1): F(1)}, {(1, 0): F(1)}
    with pytest.raises(ValueError, match="not in the span"):
        _model_from_matrices((1, 0, 1), [e01, e10], ["w1", "u1"], {})
    with pytest.raises(ValueError, match="linearly dependent"):
        _model_from_matrices((1, 1, 1), [e00, e01, {(0, 1): F(2)}],
                             ["w1", "z1", "u1"], {})
