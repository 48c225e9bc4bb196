import random
from fractions import Fraction as F

import pytest

from cartan_invariants.linalg import (QMatrix, eliminate, fredholm_witness, in_span,
                                      is_fredholm_witness, kernel, nullspace, rank, rref,
                                      row_space_rref, same_span, solve, sparse_rows)


def _rref_rows(data: list[list[F]], cols: int) -> tuple[list[list[F]], list[int]]:
    """Dense Gauss-Jordan in place: the reference the sparse core is checked against."""
    rows = len(data)
    pivots: list[int] = []
    r0 = 0
    for col in range(cols):
        pivot_row = None
        for i in range(r0, rows):
            if data[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        data[r0], data[pivot_row] = data[pivot_row], data[r0]
        pv = data[r0][col]
        if pv != 1:
            inv = F(1) / pv
            row = data[r0]
            for j in range(col, cols):
                if row[j]:
                    row[j] *= inv
        prow = data[r0]
        for i in range(rows):
            if i == r0:
                continue
            f = data[i][col]
            if f:
                row = data[i]
                for j in range(col, cols):
                    if prow[j]:
                        row[j] -= f * prow[j]
        pivots.append(col)
        r0 += 1
        if r0 == rows:
            break
    return data, pivots


def _oracle_nullspace(data, cols):
    red, pivots = _rref_rows([r[:] for r in data], cols)
    basis = []
    for fc in (j for j in range(cols) if j not in pivots):
        v = [F(0)] * cols
        v[fc] = F(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(tuple(v))
    return basis


def _oracle_solve(data, cols, b):
    red, pivots = _rref_rows([row[:] + [bi] for row, bi in zip(data, b)], cols + 1)
    if pivots and pivots[-1] == cols:
        return None
    x = [F(0)] * cols
    for i, pc in enumerate(pivots):
        x[pc] = red[i][cols]
    return tuple(x)


def _random_sparse(rng, rows, cols, density):
    """A random matrix with about ``density`` nonzeros, small entries, and
    some rows and columns forced to zero."""
    zero_rows = set(rng.sample(range(rows), rng.randint(0, rows // 3)))
    zero_cols = set(rng.sample(range(cols), rng.randint(0, cols // 3)))
    return [[F(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 1, 2, 3]))
             if i not in zero_rows and j not in zero_cols and rng.random() < density else F(0)
             for j in range(cols)] for i in range(rows)]


def test_rref_identity():
    red, pivots = rref(QMatrix.identity(2))
    assert red == QMatrix.identity(2)
    assert pivots == [0, 1]


def test_rref_zero():
    red, pivots = rref(QMatrix.zeros(3, 3))
    assert red == QMatrix.zeros(3, 3)
    assert pivots == []


def test_rref_rank_one():
    red, pivots = rref(QMatrix([[2, 4], [1, 2]]))
    assert red == QMatrix([[1, 2], [0, 0]])
    assert pivots == [0]


def test_nullspace_identity_empty():
    assert nullspace(QMatrix.identity(4)) == []


def test_nullspace_zero_full():
    vecs = nullspace(QMatrix.zeros(2, 2))
    assert len(vecs) == 2


def test_nullspace_line():
    (v,) = nullspace(QMatrix([[1, 1]]))
    assert [x * v[0] ** -1 for x in v] == [F(1), F(-1)]
    assert QMatrix([[1, 1]]).matvec(v) == (F(0),)


def test_solve_identity():
    b = [F(3), F(-7)]
    assert solve(QMatrix.identity(2), b) == (F(3), F(-7))


def test_solve_underdetermined_particular():
    x = solve(QMatrix([[1, 1]]), [F(2)])
    assert x == (F(2), F(0))  # free variable pinned to zero


def test_solve_inconsistent():
    assert solve(QMatrix([[0]]), [F(1)]) is None


def test_solve_length_mismatch():
    with pytest.raises(ValueError):
        solve(QMatrix.identity(2), [F(1)])


def test_randomized_rank_nullity_and_solve():
    rng = random.Random(20240817)
    for _ in range(150):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = QMatrix([[F(rng.randint(-4, 4)) for _ in range(c)] for _ in range(r)])
        assert rank(m) + len(nullspace(m)) == c
        for v in nullspace(m):
            assert all(e == 0 for e in m.matvec(v))
        xtrue = [F(rng.randint(-4, 4)) for _ in range(c)]
        b = m.matvec(xtrue)
        x = solve(m, b)
        assert x is not None and m.matvec(x) == b


def test_rref_is_idempotent():
    rng = random.Random(99)
    for _ in range(40):
        m = QMatrix([[F(rng.randint(-3, 3)) for _ in range(4)] for _ in range(3)])
        red, piv = rref(m)
        red2, piv2 = rref(red)
        assert red == red2 and piv == piv2


def test_span_helpers():
    a = [(F(1), F(0)), (F(0), F(1))]
    b = [(F(1), F(1)), (F(1), F(-1))]
    assert same_span(a, b)
    assert in_span(b, (F(2), F(3)))
    assert not in_span([(F(1), F(1))], (F(1), F(0)))
    assert row_space_rref([]) == []


def test_sparse_core_matches_dense_oracle():
    rng = random.Random(20261018)
    for trial in range(300):
        r, c = rng.randint(1, 14), rng.randint(1, 14)
        data = _random_sparse(rng, r, c, rng.choice([0.1, 0.25, 0.5, 0.9]))
        m = QMatrix(data)
        red, pivots = _rref_rows([row[:] for row in data], c)
        assert rref(m) == (QMatrix(red), pivots), trial
        assert rank(m) == len(pivots)
        assert nullspace(m) == _oracle_nullspace(data, c)
        assert row_space_rref(data) == [tuple(red[i]) for i in range(len(pivots))]
        # consistent right-hand sides, and arbitrary ones that are often not
        xtrue = [F(rng.randint(-3, 3)) for _ in range(c)]
        for b in (list(m.matvec(xtrue)), [F(rng.randint(-2, 2)) for _ in range(r)]):
            assert solve(m, b) == _oracle_solve(data, c, b), trial


def test_eliminate_is_order_free_and_leaves_input():
    rng = random.Random(7)
    data = _random_sparse(rng, 12, 10, 0.3)
    rows = [{j: x for j, x in enumerate(row) if x} for row in data]
    before = [dict(r) for r in rows]
    red = eliminate(rows)
    assert rows == before
    for _ in range(5):
        rng.shuffle(rows)
        assert eliminate(rows) == red
    for p, row in red.items():
        assert min(row) == p and row[p] == 1
        assert all(q == p or q not in row for q in red)


def test_sparse_rows_transposes_columns():
    cols = [{5: F(1), 9: F(2)}, {}, {9: F(-1), 3: F(0)}]
    assert sparse_rows(cols) == {5: {0: F(1)}, 9: {0: F(2), 2: F(-1)}}
    # an all-zero matrix: no rows, every column free
    assert kernel(eliminate(sparse_rows([{}, {}]).values()), 2) == [{0: F(1)}, {1: F(1)}]


def test_fredholm_witness_on_random_inconsistent_systems():
    rng = random.Random(11)
    found = 0
    for _ in range(200):
        r, c = rng.randint(2, 10), rng.randint(1, 8)
        data = _random_sparse(rng, r, c, 0.4)
        b = [F(rng.randint(-2, 2)) for _ in range(r)]
        if _oracle_solve(data, c, b) is not None:
            continue
        found += 1
        columns = [{100 + i: data[i][j] for i in range(r) if data[i][j]} for j in range(c)]
        rhs = {100 + i: bi for i, bi in enumerate(b) if bi}
        y = fredholm_witness(columns, rhs)
        assert is_fredholm_witness(columns, rhs, y)
        assert sum(y[k] * v for k, v in rhs.items() if k in y) == 1
    assert found > 20
    # a consistent system has no witness, and a wrong y is caught
    with pytest.raises(ValueError):
        fredholm_witness([{1: F(1)}], {1: F(3)})
    assert not is_fredholm_witness([{1: F(1), 2: F(1)}], {2: F(1)}, {2: F(1)})


def test_rank_and_nullspace_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    for _ in range(40):
        r, c = rng.randint(1, 9), rng.randint(1, 9)
        data = _random_sparse(rng, r, c, 0.3)
        ref = sympy.Matrix(data)
        assert rank(QMatrix(data)) == ref.rank()
        expect = [tuple(F(int(x.p), int(x.q)) for x in v) for v in ref.nullspace()]
        assert nullspace(QMatrix(data)) == expect
