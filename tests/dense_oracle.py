"""Gauss-Jordan over ``Fraction``: the reference the integer linear algebra
of ``cartan_invariants.linalg`` and its callers are checked against.

Nothing here calls the package, so a test that compares with it does not
run the code it tests.  A matrix is a list of dense rows, except for
``fraction_eliminate``, which takes sparse rows as ``linalg.eliminate`` does,
and ``rref_solve`` and ``rref_fredholm_witness``, which take sparse columns
as ``linalg.solve`` and ``linalg.fredholm_witness`` do.
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


def _add_multiple(target: dict, f: F, row: dict) -> None:
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


def fraction_eliminate(rows) -> dict[int, dict[int, F]]:
    """Sparse Gauss-Jordan of rows ``{column: entry}`` in ``Fraction``
    arithmetic: the nonzero rref rows keyed by pivot column, each with entry
    1 at its pivot.  The input rows are not modified."""
    reduced: dict[int, dict[int, F]] = {}
    for row in rows:
        r = {j: F(v) for j, v in row.items() if v}
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


def _sparse_rows(columns) -> dict:
    """Sparse columns ``{row key: entry}`` as sparse rows ``{row key: {j: entry}}``."""
    rows: dict = {}
    for j, col in enumerate(columns):
        for key, c in col.items():
            if c:
                rows.setdefault(key, {})[j] = c
    return rows


def rref_solve(columns, b) -> tuple[dict[int, F] | None, int]:
    """``linalg.solve`` read off the full rref of [A | b]: the solution with
    free entries zero, its nonzero entries by increasing pivot, or None, and
    the rank of A."""
    n = len(columns)
    reduced = fraction_eliminate(_sparse_rows([*columns, b]).values())
    if n in reduced:
        return None, len(reduced) - 1
    return {p: reduced[p][n] for p in sorted(reduced) if n in reduced[p]}, len(reduced)


def rref_fredholm_witness(columns, b) -> dict[int, F]:
    """``linalg.fredholm_witness`` read off the full rref of the transposed
    system, the columns of A and b as rows, augmented by (0, ..., 0, 1)."""
    rhs = 1 + max(key for col in (*columns, b) for key in col)
    reduced = fraction_eliminate([*columns, {**b, rhs: F(1)}])
    if rhs in reduced:
        raise ValueError("b lies in the span of the columns")
    return {k: reduced[k][rhs] for k in sorted(reduced) if rhs in reduced[k]}


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
