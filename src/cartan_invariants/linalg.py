"""Exact linear algebra over the rationals.

All of it runs on one sparse Gauss-Jordan elimination, ``eliminate``.  A row
is a dict from column key to nonzero ``Fraction``; the systems of this
project (Chevalley-Eilenberg differentials on monomial bases) are well under
1% nonzero, so only nonzero entries are ever stored or touched.
``sparse_rows`` assembles such rows from sparse columns.  The dense front
ends ``rref``, ``rank``, ``nullspace``, ``solve`` and ``row_space_rref``
convert to and from sparse rows around the same core; ``QMatrix`` is only
their input type, and no other module uses it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Vector = tuple[Fraction, ...]
Row = dict[int, Fraction]


class QMatrix:
    """Dense rectangular matrix of rationals."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence]):
        self.data = [[Fraction(x) for x in row] for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QMatrix":
        return cls([[Fraction(0)] * cols for _ in range(rows)])

    def matvec(self, v: Sequence) -> Vector:
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        vv = [Fraction(x) for x in v]
        return tuple(
            sum((row[k] * vv[k] for k in range(self.cols)), Fraction(0)) for row in self.data
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, QMatrix) and self.data == other.data

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.data))

    def __repr__(self) -> str:
        return f"QMatrix({self.data!r})"


# -- the sparse core -----------------------------------------------------------


def sparse_rows(columns: Iterable[Mapping[int, Fraction]]) -> dict[int, Row]:
    """The matrix whose j-th column maps row keys (monomial masks) to entries,
    as sparse rows ``{row key: {j: entry}}``."""
    rows: dict[int, Row] = {}
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


# -- dense front ends ----------------------------------------------------------


def _sparse(data: Iterable[Sequence]) -> list[Row]:
    return [{j: x for j, x in enumerate(row) if x} for row in data]


def _dense(row: Row, cols: int) -> list[Fraction]:
    out = [Fraction(0)] * cols
    for j, v in row.items():
        out[j] = v
    return out


def rref(m: QMatrix) -> tuple[QMatrix, list[int]]:
    """Reduced row echelon form and the (strictly increasing) pivot columns."""
    reduced = eliminate(_sparse(m.data))
    pivots = sorted(reduced)
    data = [_dense(reduced[p], m.cols) for p in pivots]
    data += [[Fraction(0)] * m.cols for _ in range(m.rows - len(pivots))]
    return QMatrix(data), pivots


def rank(m: QMatrix) -> int:
    return len(eliminate(_sparse(m.data)))


def nullspace(m: QMatrix) -> list[Vector]:
    """Basis of the right kernel {v : m v = 0}, one vector per free column."""
    return [tuple(_dense(v, m.cols)) for v in kernel(eliminate(_sparse(m.data)), m.cols)]


def solve(m: QMatrix, b: Sequence) -> Vector | None:
    """Particular solution of ``m x = b`` (free variables zero), or None.

    ``None`` means the system is inconsistent; callers use that as the
    "not exact" signal in primitive searches.
    """
    if len(b) != m.rows:
        raise ValueError("right-hand side length must equal row count")
    n = m.cols
    rows = _sparse(m.data)
    for row, bi in zip(rows, b):
        if bi:
            row[n] = Fraction(bi)
    reduced = eliminate(rows)
    if n in reduced:
        return None
    x = [Fraction(0)] * n
    for p, row in reduced.items():
        x[p] = row.get(n, Fraction(0))
    return tuple(x)


def row_space_rref(vectors: Iterable[Sequence]) -> list[Vector]:
    """Canonical rref basis of the span of the given row vectors."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    if not rows:
        return []
    reduced = eliminate(_sparse(rows))
    return [tuple(_dense(reduced[p], len(rows[0]))) for p in sorted(reduced)]


def same_span(a: Iterable[Sequence], b: Iterable[Sequence]) -> bool:
    return row_space_rref(a) == row_space_rref(b)


def in_span(vectors: Iterable[Sequence], v: Sequence) -> bool:
    base = row_space_rref(vectors)
    return row_space_rref(base + [tuple(Fraction(x) for x in v)]) == base
