"""Builders for the homogeneous models: projective, Grassmannian, Lagrangian
Grassmannian, conformal, foliated projective, split-tangent, and the g2 flag
variety.

Every family is realized by matrices, and ``_model_from_matrices`` turns them
into structure constants.  The classical families use explicit block
conventions so the index formulas of the classical structure equations hold
literally; g2 acts on its 7-dimensional module, graded by the coefficient of
the crossed (short) simple root.  Generator names are w* (minus), z* (zero),
u* (plus) in the global (part, index) order.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import rref
from .model import (BracketTable, LieModel, Rep, SparseMatrix, diagonal_block, row_index,
                    sparse_commutator, sparse_sum, tangent_rep)


def _E(i: int, j: int) -> SparseMatrix:
    """The matrix unit E_ij; its int entry keeps integral bases in ints."""
    return {(i, j): 1}


def _model_from_matrices(dims, matrices: list[SparseMatrix], names: list[str],
                         meta: dict) -> LieModel:
    """Structure constants of a matrix-realized algebra.

    AB can be nonzero only where the columns of A meet the rows of B, so only
    the pairs whose supports meet in one order or the other are commuted.
    Their commutators are expressed over the given basis with one sparse
    elimination: a row per matrix cell, a column per basis matrix, then one
    per commutator (empty when they commute).  Row p of the rref holds the
    p-components of the commutators.  A commutator outside the span is a hard
    error.
    """
    total = len(matrices)
    rows = [row_index(mat) for mat in matrices]
    cols = [{j for _, j in mat} for mat in matrices]
    pairs = [(i, j) for i in range(total) for j in range(i + 1, total)
             if not (cols[i].isdisjoint(rows[j]) and cols[j].isdisjoint(rows[i]))]
    reduced = rref(matrices + [sparse_commutator(matrices[i], matrices[j], rows[i], rows[j])
                               for i, j in pairs])
    pivots = list(reduced)
    if pivots and pivots[-1] >= total:
        raise ValueError("commutator not in the span of the basis")
    if pivots != list(range(total)):
        raise ValueError("generator matrices are linearly dependent")
    comps: list[dict[int, Fraction]] = [{} for _ in pairs]
    for p, row in reduced.items():
        for col, c in row.items():
            if col >= total:
                comps[col - total][p] = Fraction(c, row[p])
    brackets: BracketTable = {pair: comp for pair, comp in zip(pairs, comps) if comp}
    return LieModel(dims, names, brackets, reps={}, meta=meta, realization=matrices)


# The largest algebra a family builds.  The supports of every generator pair
# are compared and only the pairs that meet are commuted; 300 generators take
# 0.05-0.15 s on a 2-vCPU Xeon VM (projective(16), grassmannian(8, 9),
# lagrangian(12), conformal(23)).
MAX_GENERATORS = 300
# The most O(d) line modules projective() builds: one Rep per entry of
# o_weights, repeats included, whether or not a query reads it.
MAX_O_WEIGHTS = 64


def _dims(minus: int, zero: int, plus: int) -> tuple[int, int, int]:
    """A family's block sizes, refused before anything is built when their
    total passes MAX_GENERATORS."""
    total = minus + zero + plus
    if total > MAX_GENERATORS:
        raise ValueError(f"{total} generators, more than the {MAX_GENERATORS} a family builds")
    return (minus, zero, plus)


def _names(dims) -> list[str]:
    return [f"{prefix}{i + 1}" for prefix, count in zip("wzu", dims) for i in range(count)]


# -- projective space and Grassmannians ------------------------------------------


def _sl_blocks(p: int, q: int, meta: dict) -> tuple[LieModel, list[SparseMatrix]]:
    """sl(p+q) with g- the lower-left q x p block, g0 the block-diagonal
    traceless pairs and g+ the upper-right p x q block: the model, with its
    tangent and module (the restricted C^{p+q}) reps, and its g0 matrices.
    At p = 1 the trace correction is the int -1, so P^n = Gr(1, n+1) keeps
    an integral realization."""
    dims = _dims(p * q, p * p + q * q - 1, p * q)
    N = p + q
    u_range = range(0, p)
    q_range = range(p, N)
    minus = [_E(I, j) for I in q_range for j in u_range]
    zero = []
    inv_p = Fraction(1, p) if p > 1 else 1
    for I in q_range:
        for J in q_range:
            mat = _E(I, J)
            if I == J:
                mat = sparse_sum((1, mat), *[(-inv_p, _E(u, u)) for u in u_range])
            zero.append(mat)
    for i in u_range:
        for j in u_range:
            if i != j:
                zero.append(_E(i, j))
    for i in range(p - 1):
        zero.append(sparse_sum((1, _E(i, i)), (-1, _E(i + 1, i + 1))))
    plus = [_E(i, J) for i in u_range for J in q_range]
    m = _model_from_matrices(dims, minus + zero + plus, _names(dims), meta)
    m.reps["tangent"] = tangent_rep(m)
    m.reps["module"] = Rep("module", zero, N, g_module=True)
    return m, zero


def projective(n: int, o_weights: tuple[int, ...] = (1,)) -> LieModel:
    """Projective model: the p = 1 Grassmannian algebra, g = sl(n+1) with g-
    the first column below the corner, g0 = gl(n), g+ the first row.

    Reps: tangent; module; euler (module twisted by the weight-one ghost
    line); trivial; O(d) ghost lines for each requested weight d.
    """
    if n < 1:
        raise ValueError("n >= 1")
    if len(o_weights) > MAX_O_WEIGHTS:
        raise ValueError(f"{len(o_weights)} o_weights, more than the {MAX_O_WEIGHTS} it builds")
    meta = {"family": "projective", "params": {"n": n, "o_weights": list(o_weights)}}
    m, zero = _sl_blocks(1, n, meta)
    N = n + 1
    ident = {(i, i): 1 for i in range(N)}
    diagonal = [int(i == j) for i in range(1, N) for j in range(1, N)]
    m.reps["euler"] = Rep("euler", [sparse_sum((1, z), (d, ident))
                                    for z, d in zip(zero, diagonal)], N)
    m.reps["trivial"] = Rep("trivial", [{} for _ in zero], 1)
    for d in o_weights:
        m.reps[f"O({d})"] = Rep(f"O({d})", [{(0, 0): d * t} for t in diagonal], 1,
                                ghost=(d % (n + 1) != 0))
    return m


def grassmannian(p: int, q: int) -> LieModel:
    """Grassmannian model on the ``_sl_blocks`` algebra.  Reps: tangent;
    module; U and Q, the module's two diagonal blocks."""
    if p < 1 or q < 1:
        raise ValueError("p, q >= 1")
    meta = {"family": "grassmannian", "params": {"p": p, "q": q}}
    m, zero = _sl_blocks(p, q, meta)
    m.reps["U"] = Rep("U", [diagonal_block(mat, 0, p) for mat in zero], p, ghost=True)
    m.reps["Q"] = Rep("Q", [diagonal_block(mat, p, p + q) for mat in zero], q, ghost=True)
    return m


def lagrangian_grassmannian(n: int) -> LieModel:
    """Lagrangian Grassmannian model: g = sp(2n) with g+- the symmetric
    off-diagonal blocks and g0 = gl(n)."""
    if n < 1:
        raise ValueError("n >= 1")
    k = n * (n + 1) // 2
    dims = _dims(k, n * n, k)

    def sym_pairs():
        return [(a, b) for a in range(n) for b in range(a, n)]

    minus = []
    plus = []
    for a, b in sym_pairs():
        if a == b:
            minus.append(_E(n + a, a))
            plus.append(_E(a, n + a))
        else:
            minus.append(sparse_sum((1, _E(n + a, b)), (1, _E(n + b, a))))
            plus.append(sparse_sum((1, _E(a, n + b)), (1, _E(b, n + a))))
    zero = [sparse_sum((1, _E(a, b)), (-1, _E(n + b, n + a))) for a in range(n) for b in range(n)]
    meta = {"family": "lagrangian_grassmannian", "params": {"n": n}}
    m = _model_from_matrices(dims, minus + zero + plus, _names(dims), meta)
    m.reps["tangent"] = tangent_rep(m)
    return m


# -- conformal ----------------------------------------------------------------


def conformal(n: int) -> LieModel:
    """Conformal model: g = so(n+2) for the split form with antidiagonal
    pairing; g- the null column under the corner, g0 the scaling plus the
    middle so(n), g+ the null row.

    ``meta`` carries the induced symmetric pairing on g- and the transport
    g+ -> g- realizing the three-term Atiyah tensor identity and the
    pairing 2-form that represents c_1/( -n tau ).
    """
    if n < 3:
        raise ValueError("n >= 3")
    dims = _dims(n, n * (n - 1) // 2 + 1, n)
    N = n + 2
    mid = list(range(1, N - 1))
    mirror = {k: N - 1 - k for k in mid}

    minus = [sparse_sum((1, _E(k, 0)), (-1, _E(N - 1, mirror[k]))) for k in mid]
    plus = [sparse_sum((1, _E(0, k)), (-1, _E(mirror[k], N - 1))) for k in mid]
    zero = [sparse_sum((1, _E(0, 0)), (-1, _E(N - 1, N - 1)))]
    for a in mid:
        for b in mid:
            if a == mirror[b]:
                continue  # E(a,b) pairs with itself and cancels
            partner = (mirror[b], mirror[a])
            if (a, b) < partner:
                zero.append(sparse_sum((1, _E(a, b)), (-1, _E(mirror[b], mirror[a]))))
    pairing = [[Fraction(int(mirror[a] == b)) for b in mid] for a in mid]
    transport = [[Fraction(0)] * n for _ in range(n)]
    for ai, a in enumerate(mid):
        transport[mid.index(mirror[a])][ai] = Fraction(-1)
    meta = {
        "family": "conformal",
        "params": {"n": n},
        "pairing": pairing,
        "plus_transport": transport,
    }
    m = _model_from_matrices(dims, minus + zero + plus, _names(dims), meta)
    m.reps["tangent"] = tangent_rep(m)
    m.reps["O(1)"] = Rep("O(1)", [{(0, 0): -mat.get((0, 0), 0)} for mat in zero], 1,
                         ghost=True)
    return m


# -- foliated and split projective geometries -----------------------------------


def foliated_projective(p: int, q: int) -> LieModel:
    """Model of a 1-flat foliation: projective transformations of P^{p+q}
    preserving a P^{p-1}; leaf block i in 1..p, normal block I in p+1..p+q.

    Reps: TF (leaf tangent), normal, tangent.
    """
    if p < 1 or q < 1:
        raise ValueError("p, q >= 1")
    dims = _dims(p + q, p * p + q * q, q + p * q)
    N = p + q + 1
    leaf = range(1, p + 1)
    nor = range(p + 1, N)
    minus = [_E(i, 0) for i in leaf] + [_E(I, 0) for I in nor]
    zero = []
    for i in leaf:
        for j in leaf:
            if i != j:
                zero.append(_E(i, j))
    for I in nor:
        for J in nor:
            if I != J:
                zero.append(_E(I, J))
    for i in leaf:
        zero.append(sparse_sum((1, _E(i, i)), (-1, _E(0, 0))))
    for I in nor:
        zero.append(sparse_sum((1, _E(I, I)), (-1, _E(0, 0))))
    plus = [_E(0, J) for J in nor] + [_E(i, J) for i in leaf for J in nor]
    meta = {"family": "foliated_projective", "params": {"p": p, "q": q}}
    m = _model_from_matrices(dims, minus + zero + plus, _names(dims), meta)
    m.reps["tangent"] = tangent_rep(m)
    m.reps["TF"] = tangent_rep(m, "TF", 0, p)
    m.reps["normal"] = tangent_rep(m, "normal", p, p + q)
    return m


def split_projective(p: int, q: int) -> LieModel:
    """Product-of-affine-spaces model carried by a projective connection with
    split tangent bundle: g = (gl(p) + C^p) x (gl(q) + C^q), no g+ part."""
    if p < 1 or q < 1:
        raise ValueError("p, q >= 1")
    dims = _dims(p + q, p * p + q * q, 0)
    N = p + q + 1
    first = range(1, p + 1)
    second = range(p + 1, N)
    minus = [_E(i, 0) for i in first] + [_E(I, 0) for I in second]
    zero = [_E(i, j) for i in first for j in first]
    zero += [_E(I, J) for I in second for J in second]
    meta = {"family": "split_projective", "params": {"p": p, "q": q}}
    m = _model_from_matrices(dims, minus + zero, _names(dims), meta)
    m.reps["tangent"] = tangent_rep(m)
    return m


# -- the g2 flag variety ---------------------------------------------------------


def g2_flag() -> LieModel:
    """The five-dimensional g2 flag model (crossed short root).

    Grading by the coefficient of the short simple root a: the minus part
    collects the roots with negative a-coefficient in the block order
    (-3a-b, -3a-2b | -2a-b | -a, -a-b); the zero part is spanned by two
    Cartan combinations dual to the weights of the grade -1 pair plus the
    long-root vectors e_b, e_-b; the plus part mirrors the minus order.  The
    graded tangent module is the block-diagonal g0-action on g-.

    g2 acts on its 7-dimensional module (Fulton-Harris, Representation
    Theory, Lecture 22) with rows and columns of weights 2a+b, a+b, a, 0, -a,
    -a-b, -2a-b.  The simple root vectors move one weight step each; every
    other root vector comes from its extraspecial pair (alpha, beta) with
    N = p + 1, p the length of the alpha-string down from beta (Carter,
    Simple Groups of Lie Type, section 4.2): e_g = [e_alpha, e_beta]/N and
    e_-g = -[e_-alpha, e_-beta]/N.
    """
    # root vectors keyed by the root's (a, b) coefficients; entry (i, j)
    # carries weight j to weight i
    e = {(1, 0): {(0, 1): 1, (2, 3): 1, (3, 4): 1, (5, 6): 1},
         (-1, 0): {(1, 0): 1, (3, 2): 2, (4, 3): 2, (6, 5): 1},
         (0, 1): {(1, 2): 1, (4, 5): 1},
         (0, -1): {(2, 1): 1, (5, 4): 1}}

    def neg(root):
        return (-root[0], -root[1])

    for alpha, beta, n in (((0, 1), (1, 0), 1), ((1, 0), (1, 1), 2),
                           ((1, 0), (2, 1), 3), ((0, 1), (3, 1), 1)):
        gamma = (alpha[0] + beta[0], alpha[1] + beta[1])
        for root, x, y, sign in ((gamma, alpha, beta, 1), (neg(gamma), neg(alpha), neg(beta), -1)):
            # an entry stays an int where n divides it
            e[root] = {key: c // n if c % n == 0 else Fraction(c, n) for key, c in
                       sparse_sum((sign, sparse_commutator(e[x], e[y]))).items()}
    # h1, h2 are dual to the weights of the grade -1 generators (-a and -a-b)
    h_a = sparse_commutator(e[(1, 0)], e[(-1, 0)])
    h_b = sparse_commutator(e[(0, 1)], e[(0, -1)])
    zero = [sparse_sum((-1, h_a), (-1, h_b)), sparse_sum((-1, h_a), (-2, h_b)),
            e[(0, 1)], e[(0, -1)]]
    minus = [e[r] for r in ((-3, -1), (-3, -2), (-2, -1), (-1, 0), (-1, -1))]
    plus = [e[r] for r in ((1, 0), (1, 1), (2, 1), (3, 1), (3, 2))]
    dims = (5, 4, 5)
    meta = {"family": "g2_flag", "params": {}}
    m = _model_from_matrices(dims, minus + zero + plus, _names(dims), meta)
    m.reps["graded-tangent"] = tangent_rep(m, "graded-tangent")
    return m


FAMILIES = {
    "projective": projective,
    "grassmannian": grassmannian,
    "lagrangian": lagrangian_grassmannian,
    "conformal": conformal,
    "foliated": foliated_projective,
    "split": split_projective,
    "g2": g2_flag,
}


def build_model(family: str, **params) -> LieModel:
    if family not in FAMILIES:
        raise ValueError(f"unknown model family {family!r}; have {sorted(FAMILIES)}")
    return FAMILIES[family](**params)
