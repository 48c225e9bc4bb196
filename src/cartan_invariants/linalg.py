"""Exact linear algebra over the rationals.

The work is in integers: one sparse fraction-free forward elimination,
``_echelon``, of rows ``{column: Fraction or int}`` scaled to integers (the
Chevalley-Eilenberg systems here are well under 1% nonzero, so only nonzero
entries are stored or touched), ``eliminate``'s back-substitution to the
rref, and ``nullspace``'s kernel vectors.  The answer of a search is plain
``Fraction`` arithmetic: ``solve`` and ``fredholm_witness`` back-substitute
only their right-hand side column and touch no free column, and
``is_fredholm_witness`` sums its pairings.  ``rank`` counts echelon rows.

A matrix is passed as its list of sparse columns, each a map from a hashable
row key (a monomial mask, a matrix cell) to its entries.  ``rref``, ``rank``,
``nullspace`` and ``solve`` take such columns and ``row_space_rref`` takes
sparse rows; ``rank`` serves callers of the package, and no solver calls it.
An echelon row or a kernel vector is a primitive integer vector, positive
at its pivot or free column; a solution or a witness holds ``Fraction`` entries.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Iterable, Mapping, Sequence

Row = dict[int, int]  # an echelon row or a kernel vector: coprime integers
Vector = dict[int, Fraction]  # a solution or a witness
Scalar = Fraction | int
Column = Mapping[Hashable, Scalar]


def sparse_rows(columns: Iterable[Column]) -> dict[Hashable, dict[int, Scalar]]:
    """The matrix whose j-th column maps row keys to entries, as sparse rows
    ``{row key: {j: entry}}``."""
    rows: dict[Hashable, dict[int, Scalar]] = {}
    for j, col in enumerate(columns):
        for key, c in col.items():
            if c:
                rows.setdefault(key, {})[j] = c
    return rows


def _clear(r: dict[int, int], c: int, pivot_row: dict[int, int]) -> None:
    """r <- (p/g) r - (a/g) R in place, with R = pivot_row, p = R[c] > 0,
    a = r[c] and g = gcd(p, a): column c of r becomes zero; if p/g != 1, r
    is then divided by its content, so that wide constants keep it narrow."""
    a = r[c]
    p = pivot_row[c]
    g = gcd(p, a)
    if g != 1:
        p //= g
        a //= g
    if p != 1:
        for j in r:
            r[j] *= p
    for j, v in pivot_row.items():
        x = r.get(j, 0) - a * v
        if x:
            r[j] = x
        else:
            del r[j]
    if p != 1 and r and (g := gcd(*r.values())) != 1:
        for j in r:
            r[j] //= g


def _primitive(r: dict[int, int], pivot: int) -> dict[int, int]:
    """r divided by its content, signed so that its pivot entry is positive."""
    g = gcd(*r.values())
    if r[pivot] < 0:
        g = -g
    return r if g == 1 else {j: v // g for j, v in r.items()}


def _echelon(rows: Iterable[Mapping[int, Scalar]]) -> dict[int, dict[int, int]]:
    """Forward elimination on integer rows: an echelon form of the rows,
    keyed by pivot (each row's smallest column), each row primitive with a
    positive pivot entry.

    Each row is scaled to integers by the LCM of its denominators and cleared
    of the pivot columns already found, smallest first.
    """
    echelon: dict[int, dict[int, int]] = {}
    for row in rows:
        d = lcm(*(v.denominator for v in row.values()))
        r = {j: v.numerator * (d // v.denominator) for j, v in row.items() if v}
        while r:
            p = min(r)
            pivot_row = echelon.get(p)
            if pivot_row is None:
                echelon[p] = _primitive(r, p)
                break
            _clear(r, p, pivot_row)
    return echelon


def eliminate(rows: Iterable[Mapping[int, Scalar]]) -> dict[int, Row]:
    """Reduced row echelon form of sparse rows, computed fraction-free.

    Returns the nonzero rows of the rref keyed by pivot column, in increasing
    order of pivot, each scaled to its primitive integer multiple and in
    increasing order of column: a positive entry at its pivot, which is its
    smallest column, and no other row has an entry in that column.  Since the
    rref is unique, so is the result, whatever the order of the input rows.
    The input rows are not modified.

    After ``_echelon``, one back-substitution from the largest pivot down
    clears the other pivot columns of each integer row.
    """
    echelon = _echelon(rows)
    pivots = sorted(echelon)
    # The rows of larger pivot are already clear of every other pivot
    # column, so clearing one of them from r brings no other back.
    for p in reversed(pivots):
        r = echelon[p]
        hits = [c for c in r if c != p and c in echelon]
        if hits:
            for c in hits:
                _clear(r, c, echelon[c])
            echelon[p] = _primitive(r, p)
    return {p: dict(sorted(echelon[p].items())) for p in pivots}


def rref(columns: Iterable[Column]) -> dict[int, Row]:
    """The reduced row echelon form of the matrix with these columns, as
    ``eliminate`` returns it: its nonzero rows keyed by pivot column."""
    return eliminate(sparse_rows(columns).values())


def rank(columns: Iterable[Column]) -> int:
    return len(_echelon(sparse_rows(columns).values()))


def nullspace(columns: Sequence[Column]) -> list[Row]:
    """Basis of the right kernel {x : A x = 0}: one primitive integer vector
    per free column f, positive at f and zero at the other free columns, in
    increasing order of f.  The rref row r with pivot p gives
    x_p = -(r_f / r_p) x_f; each quotient is reduced by gcd(r_f, r_p) and x_f
    is the LCM of their denominators, so the vector needs no gcd pass."""
    reduced = rref(columns)
    quotients = {f: {} for f in range(len(columns)) if f not in reduced}
    for p, row in reduced.items():
        for j, v in row.items():
            if j != p:
                g = gcd(v, row[p])
                quotients[j][p] = (-v // g, row[p] // g)
    basis = []
    for f, qs in quotients.items():
        d = lcm(*(q for _, q in qs.values()))
        basis.append({f: d} | {p: n * (d // q) for p, (n, q) in qs.items()})
    return basis


def _back_substitute(echelon: dict[int, dict[int, int]], c: int) -> Vector:
    """The nonzero entries x_p, by increasing pivot p, of the solution with
    free entries zero of the system with ``_echelon`` form ``echelon`` and
    right-hand side column c (its largest column, not a pivot): from the
    largest pivot down, x_p = (r_c - sum_j r_j x_j) / r_p over row r's pivots j."""
    x: Vector = {}
    for p, r in sorted(echelon.items(), reverse=True):
        s = r.get(c, 0) - sum(v * x[j] for j, v in r.items() if j in x)
        if s:
            x[p] = Fraction(s, r[p])
    return dict(sorted(x.items()))


def solve(columns: Sequence[Column], b: Column) -> tuple[Vector | None, int]:
    """A solution x of ``A x = b`` (free entries zero) and the rank of A, from
    one ``_echelon`` of [A | b] and ``_back_substitute`` of its b column.

    x is None when b is not in the span of the columns; callers use that as
    the "not exact" signal in primitive searches.
    """
    n = len(columns)
    echelon = _echelon(sparse_rows([*columns, b]).values())
    if n in echelon:
        return None, len(echelon) - 1
    return _back_substitute(echelon, n), len(echelon)


def row_space_rref(rows: Iterable[Mapping[int, Scalar]]) -> list[Row]:
    """The rref basis, as ``eliminate`` rows, of the span of sparse rows."""
    return list(eliminate(rows).values())


def fredholm_witness(columns: Sequence[Mapping[int, Scalar]], b: Mapping[int, Scalar]) -> Vector:
    """A left vector y (row key -> entry) with y.a = 0 for every column a and
    y.b = 1, proving that ``A x = b`` has no solution.

    By the Fredholm alternative such a y exists exactly when b is not in the
    span of the columns.  It is the solution, with free entries zero, of the
    transposed system whose rows are the columns of A and b, augmented by the
    right-hand side (0, ..., 0, 1).
    """
    rhs = 1 + max(key for col in (*columns, b) for key in col)
    echelon = _echelon([*columns, {**b, rhs: 1}])
    if rhs in echelon:
        raise ValueError("b lies in the span of the columns")
    return _back_substitute(echelon, rhs)


def is_fredholm_witness(columns: Iterable[Mapping[int, Scalar]], b: Mapping[int, Scalar],
                        y: Mapping[int, Fraction]) -> bool:
    """Exact check that y.a = 0 for every column a and y.b != 0."""
    def pair(vec: Mapping[int, Scalar]) -> Scalar:
        return sum(c * y[k] for k, c in vec.items() if k in y)

    return all(not pair(a) for a in columns) and pair(b) != 0
