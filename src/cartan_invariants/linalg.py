"""Exact linear algebra over the rationals.

All of it runs on one sparse Gauss-Jordan elimination, ``eliminate``.  A row
is a dict from column index to nonzero ``Fraction``; the systems of this
project (Chevalley-Eilenberg differentials on monomial bases) are well under
1% nonzero, so only nonzero entries are ever stored or touched.

A matrix is passed as its list of sparse columns, each a map from a hashable
row key (a monomial mask, a matrix cell) to its entries.  ``rref``, ``rank``,
``nullspace`` and ``solve`` take such columns and ``row_space_rref`` takes
sparse rows; these five are what the solvers call.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Sequence

Row = dict[int, Fraction]
Column = Mapping[Hashable, Fraction]


def sparse_rows(columns: Iterable[Column]) -> dict[Hashable, Row]:
    """The matrix whose j-th column maps row keys to entries, as sparse rows
    ``{row key: {j: entry}}``."""
    rows: dict[Hashable, Row] = {}
    for j, col in enumerate(columns):
        for key, c in col.items():
            if c:
                rows.setdefault(key, {})[j] = c
    return rows


def _add_multiple(target: Row, f: Fraction, row: Row) -> None:
    """target += f * row, in place, dropping entries that cancel."""
    for j, v in row.items():
        x = target.get(j)
        if x is None:
            target[j] = f * v
        else:
            x += f * v
            if x:
                target[j] = x
            else:
                del target[j]


def eliminate(rows: Iterable[Mapping[int, Fraction]]) -> dict[int, Row]:
    """Gauss-Jordan elimination of sparse rows with ``Fraction`` entries.

    Returns the nonzero rows of the reduced row echelon form keyed by pivot
    column: each row has entry 1 at its pivot, which is its smallest column,
    and no other row has an entry in that column.  Since the rref is unique,
    so are the pivots and rows, whatever the order of the input rows.  The
    input rows are not modified.
    """
    reduced: dict[int, Row] = {}
    for row in rows:
        r = {j: v for j, v in row.items() if v}
        # The pivot rows are zero in each other's pivot columns, so one pass
        # over the pivot columns present in r clears them all.
        for c in [c for c in r if c in reduced]:
            _add_multiple(r, -r[c], reduced[c])
        if not r:
            continue
        p = min(r)
        pv = r[p]
        if pv != 1:
            r = {j: v / pv for j, v in r.items()}
        for other in reduced.values():
            f = other.get(p)
            if f:
                _add_multiple(other, -f, r)
        reduced[p] = r
    return reduced


def kernel(reduced: dict[int, Row], cols: int) -> list[Row]:
    """Basis of the right kernel of a matrix with ``cols`` columns, given its
    ``eliminate`` output: one vector per free column f, with entry 1 at f, in
    increasing order of f."""
    basis = {f: {f: Fraction(1)} for f in range(cols) if f not in reduced}
    for p, row in reduced.items():
        for j, v in row.items():
            if j != p:
                basis[j][p] = -v
    return list(basis.values())


def rref(columns: Iterable[Column]) -> dict[int, Row]:
    """The reduced row echelon form of the matrix with these columns, as
    ``eliminate`` returns it: its nonzero rows keyed by pivot column."""
    return eliminate(sparse_rows(columns).values())


def rank(columns: Iterable[Column]) -> int:
    return len(rref(columns))


def nullspace(columns: Sequence[Column]) -> list[Row]:
    """Basis of the right kernel {x : A x = 0}, one vector per free column,
    with entry 1 there, in increasing order of the free column."""
    return kernel(rref(columns), len(columns))


def solve(columns: Sequence[Column], b: Column) -> tuple[Row | None, int]:
    """A solution x of ``A x = b`` (free entries zero) and the rank of A, from
    one elimination of [A | b].

    x is None when b is not in the span of the columns; callers use that as
    the "not exact" signal in primitive searches.
    """
    n = len(columns)
    reduced = rref([*columns, b])
    if n in reduced:
        return None, len(reduced) - 1
    return {p: reduced[p][n] for p in sorted(reduced) if n in reduced[p]}, len(reduced)


def row_space_rref(rows: Iterable[Mapping[int, Fraction]]) -> list[Row]:
    """The rref basis of the span of the given sparse rows, in pivot order."""
    reduced = eliminate(rows)
    return [reduced[p] for p in sorted(reduced)]


def fredholm_witness(columns: Sequence[Mapping[int, Fraction]], b: Mapping[int, Fraction]) -> Row:
    """A left vector y (row key -> entry) with y.a = 0 for every column a and
    y.b = 1, proving that ``A x = b`` has no solution.

    By the Fredholm alternative such a y exists exactly when b is not in the
    span of the columns.  It is the solution, with free entries zero, of the
    transposed system whose rows are the columns of A and b, augmented by the
    right-hand side (0, ..., 0, 1).
    """
    rhs = 1 + max(key for col in (*columns, b) for key in col)
    reduced = eliminate([*columns, {**b, rhs: Fraction(1)}])
    if rhs in reduced:
        raise ValueError("b lies in the span of the columns")
    return {k: row[rhs] for k, row in reduced.items() if rhs in row}


def is_fredholm_witness(columns: Iterable[Mapping[int, Fraction]], b: Mapping[int, Fraction],
                        y: Mapping[int, Fraction]) -> bool:
    """Exact check that y.a = 0 for every column a and y.b != 0."""
    def pair(vec: Mapping[int, Fraction]) -> Fraction:
        return sum((c * y[k] for k, c in vec.items() if k in y), Fraction(0))

    return all(not pair(a) for a in columns) and pair(b) != 0
