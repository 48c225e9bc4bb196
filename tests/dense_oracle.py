"""Dense Gauss-Jordan over ``Fraction``: the reference the sparse linear
algebra of ``cartan_invariants.linalg`` and its callers are checked against.

Nothing here calls the package, so a test that compares with it does not
run the code it tests.  A matrix is a list of dense rows.
"""

from fractions import Fraction as F


def rref_rows(data: list[list[F]], cols: int) -> tuple[list[list[F]], list[int]]:
    """Dense Gauss-Jordan in place: the rows in reduced row echelon form
    (zero rows last) and the pivot columns."""
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


def oracle_nullspace(data, cols) -> list[tuple[F, ...]]:
    """Basis of the right kernel, one vector per free column, with entry 1 there."""
    red, pivots = rref_rows([r[:] for r in data], cols)
    basis = []
    for fc in (j for j in range(cols) if j not in pivots):
        v = [F(0)] * cols
        v[fc] = F(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(tuple(v))
    return basis


def oracle_solve(data, cols, b) -> tuple[F, ...] | None:
    """The solution of ``data x = b`` with free entries zero, or None."""
    red, pivots = rref_rows([row[:] + [bi] for row, bi in zip(data, b)], cols + 1)
    if pivots and pivots[-1] == cols:
        return None
    x = [F(0)] * cols
    for i, pc in enumerate(pivots):
        x[pc] = red[i][cols]
    return tuple(x)


def span_rref(vectors) -> list[tuple[F, ...]]:
    """Canonical basis of the span of dense row vectors: its nonzero rref rows."""
    rows = [[F(x) for x in v] for v in vectors]
    if not rows:
        return []
    red, pivots = rref_rows(rows, len(rows[0]))
    return [tuple(red[i]) for i in range(len(pivots))]


def same_span(a, b) -> bool:
    return span_rref(a) == span_rref(b)


def in_span(vectors, v) -> bool:
    base = span_rref(vectors)
    return span_rref(base + [tuple(F(x) for x in v)]) == base
