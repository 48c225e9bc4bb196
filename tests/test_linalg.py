import random
from fractions import Fraction as F
from math import gcd

import pytest

from cartan_invariants import Part, grassmannian, invariant_basis, linalg
from cartan_invariants.forms import is_diagonal
from cartan_invariants.linalg import (_echelon, eliminate, fredholm_witness, is_fredholm_witness,
                                      nullspace, rank, rref, row_space_rref, solve, sparse_rows)
from dense_oracle import (fraction_eliminate, in_span, oracle_nullspace, oracle_solve,
                          rref_fredholm_witness, rref_rows, rref_solve, same_span, span_rref)


def _columns(data):
    """The sparse columns, keyed by row index, of a matrix of dense rows."""
    return [{i: row[j] for i, row in enumerate(data) if row[j]} for j in range(len(data[0]))]


def _dense(row, cols):
    return tuple(row.get(j, F(0)) for j in range(cols))


def _unit(vec, k):
    """An integer vector scaled to 1 at key k, as Fractions in its key order."""
    return {j: F(v, vec[k]) for j, v in vec.items()}


def _assert_primitive(vec, k):
    """The integer contract of an echelon row or a kernel vector: nonzero
    int entries with gcd 1, positive at key k."""
    assert all(type(v) is int and v for v in vec.values())
    assert gcd(*vec.values()) == 1 and vec[k] > 0


def _apply(columns, x):
    """A x as a sparse column."""
    out = {}
    for j, c in x.items():
        for k, v in columns[j].items():
            out[k] = out.get(k, F(0)) + c * v
    return {k: v for k, v in out.items() if v}


def _random_sparse(rng, rows, cols, density):
    """A random matrix with about ``density`` nonzeros, small entries, and
    some rows and columns forced to zero."""
    zero_rows = set(rng.sample(range(rows), rng.randint(0, rows // 3)))
    zero_cols = set(rng.sample(range(cols), rng.randint(0, cols // 3)))
    return [[F(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 1, 2, 3]))
             if i not in zero_rows and j not in zero_cols and rng.random() < density else F(0)
             for j in range(cols)] for i in range(rows)]


def test_rref_identity():
    assert rref([{0: F(1)}, {1: F(1)}]) == {0: {0: F(1)}, 1: {1: F(1)}}


def test_rref_zero():
    assert rref([{}, {}, {}]) == {}


def test_rref_rank_one():
    assert rref(_columns([[F(2), F(4)], [F(1), F(2)]])) == {0: {0: F(1), 1: F(2)}}


def test_nullspace_identity_empty():
    assert nullspace([{i: F(1)} for i in range(4)]) == []


def test_nullspace_zero_full():
    assert nullspace([{}, {}]) == [{0: F(1)}, {1: F(1)}]


def test_nullspace_line():
    cols = _columns([[F(1), F(1)]])
    (v,) = nullspace(cols)
    assert v == {0: F(-1), 1: F(1)}
    assert _apply(cols, v) == {}


def test_solve_identity():
    assert solve([{0: F(1)}, {1: F(1)}], {0: F(3), 1: F(-7)}) == ({0: F(3), 1: F(-7)}, 2)


def test_solve_underdetermined_particular():
    x, rk = solve([{0: F(1)}, {0: F(1)}], {0: F(2)})
    assert (x, rk) == ({0: F(2)}, 1)  # free variable pinned to zero


def test_solve_inconsistent():
    assert solve([{}], {0: F(1)}) == (None, 0)


def test_solve_length_mismatch():
    # b has an entry in a row that no column touches
    assert solve([{0: F(1)}, {1: F(1)}], {0: F(1), 2: F(1)}) == (None, 2)


def test_randomized_rank_nullity_and_solve():
    rng = random.Random(20240817)
    for _ in range(150):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        cols = _columns([[F(rng.randint(-4, 4)) for _ in range(c)] for _ in range(r)])
        assert rank(cols) + len(nullspace(cols)) == c
        for v in nullspace(cols):
            assert _apply(cols, v) == {}
        b = _apply(cols, {j: F(rng.randint(-4, 4)) for j in range(c)})
        x, rk = solve(cols, b)
        assert x is not None and _apply(cols, x) == b and rk == rank(cols)


def test_rref_is_idempotent():
    rng = random.Random(99)
    for _ in range(40):
        red = rref(_columns([[F(rng.randint(-3, 3)) for _ in range(4)] for _ in range(3)]))
        cols = [{p: row[j] for p, row in red.items() if j in row} for j in range(4)]
        assert rref(cols) == red


def test_span_helpers():
    a = [(F(1), F(0)), (F(0), F(1))]
    b = [(F(1), F(1)), (F(1), F(-1))]
    assert same_span(a, b)
    assert in_span(b, (F(2), F(3)))
    assert not in_span([(F(1), F(1))], (F(1), F(0)))
    assert span_rref([]) == []
    assert row_space_rref([]) == []


def test_sparse_core_matches_dense_oracle():
    rng = random.Random(20261018)
    for trial in range(300):
        r, c = rng.randint(1, 14), rng.randint(1, 14)
        data = _random_sparse(rng, r, c, rng.choice([0.1, 0.25, 0.5, 0.9]))
        cols = _columns(data)
        red, pivots = rref_rows([row[:] for row in data], c)
        expect = [tuple(red[i]) for i in range(len(pivots))]
        got = rref(cols)
        assert sorted(got) == pivots, trial
        assert [_dense(_unit(got[p], p), c) for p in pivots] == expect, trial
        for p, row in got.items():
            _assert_primitive(row, p)
        assert rank(cols) == len(pivots)
        # a kernel vector's free column is its largest: every pivot it meets is smaller
        null = nullspace(cols)
        assert [_dense(_unit(v, max(v)), c) for v in null] == oracle_nullspace(data, c), trial
        for v in null:
            _assert_primitive(v, max(v))
        rows = [{j: x for j, x in enumerate(row) if x} for row in data]
        span = row_space_rref(rows)
        assert [_dense(_unit(row, min(row)), c) for row in span] == expect, trial
        for row in span:
            _assert_primitive(row, min(row))
        # consistent right-hand sides, and arbitrary ones that are often not
        xtrue = {j: F(rng.randint(-3, 3)) for j in range(c)}
        consistent = _apply(cols, xtrue)
        for b in ([consistent.get(i, F(0)) for i in range(r)],
                  [F(rng.randint(-2, 2)) for _ in range(r)]):
            x, rk = solve(cols, {i: bi for i, bi in enumerate(b) if bi})
            assert (None if x is None else _dense(x, c)) == oracle_solve(data, c, b), trial
            assert rk == len(pivots)


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


def _wide_entry(rng):
    """A nonzero int or Fraction, numerator up to 2**64, denominator up to 2**20."""
    num = rng.choice([rng.randint(1, 5), rng.randint(1, 2**64)]) * rng.choice([-1, 1])
    if rng.random() < 0.4:
        return num
    return F(num, rng.choice([1, rng.randint(1, 7), rng.randint(1, 2**20)]))


def _wide_rows(rng, rows, cols):
    """Sparse rows, keys in random order, with wide mixed entries, some
    negative leading entries, duplicate and scaled rows, and zero rows."""
    density = rng.choice([0.15, 0.4, 0.8])
    out = []
    for _ in range(rows):
        keys = [j for j in range(cols) if rng.random() < density]
        rng.shuffle(keys)
        row = {j: _wide_entry(rng) for j in keys}
        if row and rng.random() < 0.3:
            row[min(row)] = -abs(row[min(row)])
        out.append(row)
    for row in rng.sample(out, rng.randint(0, len(out))):
        out.append(dict(row) if rng.random() < 0.5 else {j: -3 * v for j, v in row.items()})
    out += [{}, {rng.randrange(cols): 0}, {rng.randrange(cols): F(0)}][:rng.randint(0, 3)]
    rng.shuffle(out)
    return out


def _layout(reduced):
    """The rref with its key order, pivots and columns both."""
    return [(p, list(row.items())) for p, row in reduced.items()]


def test_integer_core_matches_fraction_oracles():
    rng = random.Random(20261019)
    for trial in range(300):
        cols = rng.randint(1, 12)
        rows = _wide_rows(rng, rng.randint(1, 10), cols)
        before = [list(r.items()) for r in rows]
        got = eliminate(rows)
        assert [list(r.items()) for r in rows] == before, trial
        # each row scaled to 1 at its pivot against both Fraction references:
        # sparse Gauss-Jordan and dense rref rows
        unit = {p: _unit(row, p) for p, row in got.items()}
        assert unit == fraction_eliminate(rows), trial
        red, pivots = rref_rows([[F(r.get(j, 0)) for j in range(cols)] for r in rows], cols)
        assert unit == {p: {j: v for j, v in enumerate(red[i]) if v}
                        for i, p in enumerate(pivots)}, trial
        # the output contract: increasing pivots and columns, and each row
        # the primitive integer multiple of its rref row, positive at its pivot
        assert list(got) == sorted(got)
        for p, row in got.items():
            assert list(row) == sorted(row) and min(row) == p
            _assert_primitive(row, p)
        # the forward pass: primitive integer rows with positive pivots
        echelon = _echelon(rows)
        assert sorted(echelon) == list(got)
        for p, row in echelon.items():
            assert min(row) == p and row[p] > 0 and gcd(*row.values()) == 1
            assert all(type(v) is int for v in row.values())
        for _ in range(2):
            shuffled = [dict(rng.sample(list(r.items()), len(r))) for r in rows]
            rng.shuffle(shuffled)
            assert _layout(eliminate(shuffled)) == _layout(got), trial


def _wide_system(rng):
    """Sparse columns over scattered int row keys, with wide int and Fraction
    entries, some empty and some combinations of earlier ones, and a
    right-hand side that is either in their span or random."""
    keys = rng.sample(range(2**16), rng.randint(1, 10))
    density = rng.choice([0.15, 0.4, 0.8])
    columns = []
    for _ in range(rng.randint(1, 10)):
        kind = rng.random()
        if kind < 0.15:
            columns.append({})
        elif kind < 0.4 and columns:
            combo = _apply(columns, {j: F(_wide_entry(rng)) for j in
                                     rng.sample(range(len(columns)), rng.randint(1, len(columns)))})
            columns.append({k: v.numerator if v.denominator == 1 else v
                            for k, v in combo.items()})
        else:
            columns.append({k: _wide_entry(rng) for k in keys if rng.random() < density})
    if rng.random() < 0.5:
        b = _apply(columns, {j: F(_wide_entry(rng)) for j in range(len(columns))
                             if rng.random() < 0.6})
    else:
        b = {k: _wide_entry(rng) for k in keys if rng.random() < density}
    return columns, b


def test_back_substitution_matches_rref_reference():
    """solve and fredholm_witness back-substitute one column of the integer
    echelon form; the reference reads that column off the full Fraction rref.
    Keys, their order, the reduced Fraction values and the rank all agree."""
    rng = random.Random(20261020)
    seen = {"consistent": 0, "inconsistent": 0, "deficient": 0, "empty column": 0}
    for trial in range(400):
        columns, b = _wide_system(rng)
        before = ([dict(c) for c in columns], dict(b))
        x, rk = solve(columns, b)
        ref_x, ref_rk = rref_solve(columns, b)
        assert rk == ref_rk, trial
        assert (x is None) == (ref_x is None), trial
        seen["deficient"] += rk < len(columns)
        seen["empty column"] += {} in columns
        if x is not None:
            seen["consistent"] += 1
            assert list(x.items()) == list(ref_x.items()), trial
            assert all(type(v) is F and v for v in x.values())
            with pytest.raises(ValueError):
                fredholm_witness(columns, b)
        else:
            seen["inconsistent"] += 1
            y = fredholm_witness(columns, b)
            assert list(y.items()) == list(rref_fredholm_witness(columns, b).items()), trial
            assert all(type(v) is F and v for v in y.values())
            assert is_fredholm_witness(columns, b, y), trial
        assert ([dict(c) for c in columns], dict(b)) == before, trial
    assert min(seen.values()) >= 60, seen


def _fraction_witness_check(columns, b, y):
    """is_fredholm_witness as it was: every pairing summed in Fractions."""
    def pair(vec):
        return sum((c * y[k] for k, c in vec.items() if k in y), F(0))

    return all(not pair(a) for a in columns) and pair(b) != 0


def test_witness_check_in_integers_matches_the_fraction_sums():
    """is_fredholm_witness decides exactly as the Fraction sums written out
    here do, on true witnesses, on witnesses with one entry moved, scaled or
    dropped, and on vectors with a key no column has."""
    rng = random.Random(20261019)
    seen = {True: 0, False: 0}
    for trial in range(400):
        columns, b = _wide_system(rng)
        if solve(columns, b)[0] is not None:
            continue
        y = fredholm_witness(columns, b)
        key = rng.choice(list(y))
        for probe in (y, {**y, key: y[key] + F(1, rng.randint(1, 7))}, {**y, key: 3 * y[key]},
                      {k: v for k, v in y.items() if k != key}, {**y, 2**17: F(-5, 3)}):
            got = is_fredholm_witness(columns, b, probe)
            assert got == _fraction_witness_check(columns, b, probe), trial
            seen[got] += 1
    assert min(seen.values()) >= 100, seen


def test_forward_pass_divides_out_common_factors(monkeypatch):
    """Clearing a column divides both multipliers by their gcd, so a row
    cleared of eight pivot columns whose entries share the factor 2**20
    keeps entries of that size instead of growing by it at every step."""
    n, k = 2**20, 8
    rows = [{i: n, k: 1} for i in range(k)] + [{**{i: n for i in range(k)}, k + 1: 1}]
    sizes = []
    real = linalg._clear

    def clear(r, c, pivot_row):
        real(r, c, pivot_row)
        sizes.append(max(abs(v) for v in r.values()))

    monkeypatch.setattr(linalg, "_clear", clear)
    assert _echelon(rows)[k] == {k: k, k + 1: -1}
    assert len(sizes) == k and max(sizes) <= n


def test_sparse_rows_transposes_columns():
    cols = [{5: F(1), 9: F(2)}, {}, {9: F(-1), 3: F(0)}]
    assert sparse_rows(cols) == {5: {0: F(1)}, 9: {0: F(2), 2: F(-1)}}
    # an all-zero matrix: no rows, every column free
    assert nullspace([{}, {}]) == [{0: 1}, {1: 1}]
    # any hashable row key, such as a matrix cell
    assert sparse_rows([{(0, 1): F(1)}, {(0, 1): F(2), (1, 0): F(3)}]) == {
        (0, 1): {0: F(1), 1: F(2)}, (1, 0): {1: F(3)}}


def test_fredholm_witness_on_random_inconsistent_systems():
    rng = random.Random(11)
    found = 0
    for _ in range(200):
        r, c = rng.randint(2, 10), rng.randint(1, 8)
        data = _random_sparse(rng, r, c, 0.4)
        b = [F(rng.randint(-2, 2)) for _ in range(r)]
        if oracle_solve(data, c, b) is not None:
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
        assert rank(_columns(data)) == ref.rank()
        expect = [tuple(F(int(x.p), int(x.q)) for x in v) for v in ref.nullspace()]
        null = nullspace(_columns(data))
        assert [_dense(_unit(v, max(v)), c) for v in null] == expect
        for v in null:
            _assert_primitive(v, max(v))


def test_echelon_rows_and_kernel_vectors_build_no_fraction(monkeypatch):
    """eliminate, rref, nullspace and row_space_rref answer in integers, and
    so does invariant_basis, whose joint kernel and canonical rows they are."""
    rng = random.Random(20261021)
    rows = _wide_rows(rng, 8, 9)
    cols = _columns(_random_sparse(rng, 9, 8, 0.4))
    m = grassmannian(2, 2)
    assert not all(is_diagonal(m.coadjoint_table(u)) for u in m.part_range(Part.ZERO))
    expect = (eliminate(rows), rref(cols), nullspace(cols), row_space_rref(rows),
              invariant_basis(m, 4, 2))
    assert expect[2] and expect[4]

    def no_fraction(*args):
        raise AssertionError("linalg built a Fraction")

    monkeypatch.setattr(linalg, "Fraction", no_fraction)
    assert (eliminate(rows), rref(cols), nullspace(cols), row_space_rref(rows),
            invariant_basis(m, 4, 2)) == expect
