"""Trigraded Lie algebra models g = g- + g0 + g+ with exact structure constants.

A model stores the bracket table of a finite-dimensional complex Lie algebra
together with a splitting into three blocks (minus/zero/plus) coming from a
Langlands decomposition of a homogeneous space: g0 reductive, h = g0 + g+ the
isotropy subalgebra, g- a complement realizing the tangent space.

Structure constants are stored only for ordered generator pairs i < j in the
global order (part, index); antisymmetry is structural.  They are also held
as integer tables of derivations of the dual exterior algebra, d and the
coadjoint action of each generator (built per part, on first use), which
``derivation_nums`` applies.
"""

from __future__ import annotations

from enum import IntEnum
from fractions import Fraction
from math import lcm


def parity_above(mask: int) -> int:
    """The mask whose bit y is set iff mask has an odd number of bits above y.

    A prefix XOR of ``mask >> 1`` towards the low bits.  The wedge of the
    unit monomials a and b (disjoint) is (-1)^n (a | b), where n counts the
    pairs (x in a, y in b) with x > y; n has the parity of
    ``(parity_above(a) & b).bit_count()``.
    """
    p = mask >> 1
    width = p.bit_length()
    shift = 1
    while shift < width:
        p ^= p >> shift
        shift <<= 1
    return p


def mask_bits(mask: int) -> list[int]:
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


class Part(IntEnum):
    MINUS = 0
    ZERO = 1
    PLUS = 2


class Record:
    """Base of the package's small value classes, in place of dataclasses,
    whose import would cost every CLI process about 12 ms.  The fields are
    the subclass's ``__slots__``; equality and repr go by them.  A record is
    mutable and unhashable."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__))


class FrozenRecord(Record):
    """An immutable, hashable record: ``__init__`` sets the fields once,
    through ``_init``."""

    __slots__ = ()

    def _init(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        # copy and pickle rebuild through __init__: their default sets each slot,
        # which __setattr__ refuses
        return type(self), self._fields()


BracketTable = dict[tuple[int, int], dict[int, Fraction]]
# a matrix by its nonzero entries: int or Fraction in a family's basis
# matrices and their commutators, Fraction in a Rep
SparseMatrix = dict[tuple[int, int], Fraction | int]
# A derivation D of the exterior algebra, in integer numerators over the
# dual_d den: (groups, risers).  groups[a, rise] lists the terms of D(xi^a)
# whose plus count exceeds a's by rise, as (image mask, parity_above(image),
# numerator), and groups[a, None] all of them; risers[rise] is the mask of
# the generators a with such terms, risers[None] of those with any.
Derivation = tuple[dict[tuple[int, int | None], list[tuple[int, int, int]]], dict[int | None, int]]


def sparse_sum(*terms: tuple[Fraction | int, SparseMatrix]) -> SparseMatrix:
    """sum c * mat over the (c, mat) pairs, without zero entries."""
    out: SparseMatrix = {}
    for c, mat in terms:
        if c:
            for key, x in mat.items():
                out[key] = out.get(key, 0) + c * x
    return {key: x for key, x in out.items() if x}


def diagonal_block(mat: SparseMatrix, lo: int, hi: int) -> SparseMatrix:
    """The [lo, hi) x [lo, hi) block, shifted to start at (0, 0)."""
    return {(i - lo, j - lo): x for (i, j), x in mat.items() if lo <= i < hi and lo <= j < hi}


def row_index(mat: SparseMatrix) -> dict[int, list[tuple[int, Fraction | int]]]:
    """The entries of mat by row, ``{k: [(j, mat[k, j]), ...]}``."""
    rows: dict[int, list[tuple[int, Fraction | int]]] = {}
    for (k, j), v in mat.items():
        rows.setdefault(k, []).append((j, v))
    return rows


def sparse_commutator(a: SparseMatrix, b: SparseMatrix, rows_a=None, rows_b=None) -> SparseMatrix:
    """ab - ba from the nonzero entries alone, without zero entries.  A
    caller that commutes each matrix many times passes its ``row_index`` as
    ``rows_a`` or ``rows_b``, so that it is built once."""
    out: SparseMatrix = {}
    for x, rows, sign in ((a, row_index(b) if rows_b is None else rows_b, 1),
                          (b, row_index(a) if rows_a is None else rows_a, -1)):
        for (i, k), u in x.items():
            for j, v in rows.get(k, ()):
                out[(i, j)] = out.get((i, j), 0) + sign * u * v
    return {key: v for key, v in out.items() if v}


class Rep:
    """g0-representation by exact rational matrices, one per g0 generator.

    Each matrix is a ``SparseMatrix``: the nonzero entries of a ``dim`` x
    ``dim`` matrix as a ``{(row, col): Fraction}`` map, so ``{}`` is the zero
    matrix.  ``ghost`` marks modules with no group-level associated bundle;
    that is metadata only, every formula treats ghosts like ordinary modules.
    ``g_module`` marks restrictions of representations of the whole algebra,
    which is what the exactness audit keys on.
    """

    __slots__ = ("label", "dim", "matrices", "ghost", "g_module")

    def __init__(self, label: str, matrices: list[SparseMatrix], dim: int,
                 ghost: bool = False, g_module: bool = False):
        self.label = label
        self.dim = dim
        self.matrices = [{key: x if type(x) is Fraction else Fraction(x)
                          for key, x in mat.items() if x} for mat in matrices]
        for mat in self.matrices:
            for i, j in mat:
                if not (0 <= i < dim and 0 <= j < dim):
                    raise ValueError(f"rep {label!r}: entry ({i},{j}) outside {dim}x{dim}")
        self.ghost = ghost
        self.g_module = g_module

    def act(self, m: LieModel, v: dict[int, Fraction]) -> SparseMatrix:
        """Matrix of the g0-part of v, a sparse coefficient dict over the
        generators of m, such as a bracket."""
        start, end = m.offsets[Part.ZERO], m.offsets[Part.PLUS]
        return sparse_sum(*((c, self.matrices[g - start]) for g, c in v.items()
                            if start <= g < end))


class LieModel:
    """Bracket table of g over the global generator order, with its g0-reps.

    ``realization``, when the model comes from matrices, holds one
    ``SparseMatrix`` per generator in global order: the matrix whose
    commutators the bracket table records.
    """

    def __init__(self, dims: tuple[int, int, int], names: list[str],
                 brackets: BracketTable, reps: dict[str, Rep] | None = None,
                 meta: dict | None = None, realization: list[SparseMatrix] | None = None):
        self.dims = tuple(dims)
        self.total = sum(dims)
        if len(names) != self.total:
            raise ValueError("need one name per generator")
        if len(set(names)) != self.total:
            raise ValueError("generator names must be unique")
        self.names = list(names)
        self.offsets = (0, dims[0], dims[0] + dims[1])
        self.brackets: BracketTable = {}
        for (i, j), comp in brackets.items():
            if not (0 <= i < j < self.total):
                raise ValueError(f"bad bracket key ({i},{j})")
            entry = {k: c if type(c) is Fraction else Fraction(c) for k, c in comp.items() if c}
            for k in entry:
                if not 0 <= k < self.total:
                    raise ValueError(f"bracket ({i},{j}) hits generator {k} out of range")
            if entry:
                self.brackets[(i, j)] = entry
        self.reps: dict[str, Rep] = reps or {}
        self.meta = meta or {}
        self.realization = realization
        # masks for fast trigrade bookkeeping of monomials
        self.minus_mask = ((1 << dims[0]) - 1)
        self.zero_mask = ((1 << dims[1]) - 1) << dims[0]
        self.plus_mask = ((1 << dims[2]) - 1) << (dims[0] + dims[1])
        self._dual_d: tuple[int, Derivation] | None = None
        self._coadjoint: dict[int, Derivation] = {}

    # -- basic structure ---------------------------------------------------

    def part_of(self, gid: int) -> Part:
        if gid < self.offsets[1]:
            return Part.MINUS
        if gid < self.offsets[2]:
            return Part.ZERO
        return Part.PLUS

    def gid(self, part: Part, index: int) -> int:
        if not 0 <= index < self.dims[part]:
            raise IndexError(f"no generator {index} in part {Part(part).name.lower()}")
        return self.offsets[part] + index

    def part_range(self, part: Part) -> range:
        start = self.offsets[part]
        return range(start, start + self.dims[part])

    def bracket_basis(self, i: int, j: int) -> dict[int, Fraction]:
        """[e_i, e_j] as a sparse coefficient dict."""
        if i == j:
            return {}
        if i < j:
            return self.brackets.get((i, j), {})
        comp = self.brackets.get((j, i), {})
        return {k: -c for k, c in comp.items()}

    # -- derivation tables -------------------------------------------------

    def dual_d(self) -> tuple[int, Derivation]:
        """(den, table): den is the LCM of the structure constants'
        denominators, and ``table`` the ``Derivation`` of
        d(xi^a) = -sum c^a_bc xi^b xi^c (b<c), in numerators over den."""
        if self._dual_d is None:
            den = lcm(*(c.denominator for comp in self.brackets.values() for c in comp.values()))
            groups: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
            for (i, j), comp in self.brackets.items():
                # parity_above of the pair: the bits from i up to below j
                pair, odd = (1 << i) | (1 << j), (1 << j) - (1 << i)
                plus = (pair & self.plus_mask).bit_count()
                for k, c in comp.items():
                    groups.setdefault((k, plus - (self.plus_mask >> k & 1)), []).append(
                        (pair, odd, -c.numerator * (den // c.denominator)))
            self._dual_d = (den, _derivation(groups))
        return self._dual_d

    def coadjoint_table(self, u: int) -> Derivation:
        """The ``Derivation`` of u's coadjoint action (u . xi)(y) = -xi([u, y]),
        over the ``dual_d`` den.  On 1-forms it is Cartan's i_u d, so each
        term n xi^b ^ xi^c (b<c) of d xi^a gives n xi^c to u = b and -n xi^b
        to u = c; the first call for a part builds the tables of that part's
        generators in one pass, with one shared term per image and numerator."""
        if not 0 <= u < self.total:
            raise IndexError(f"no generator {u}")
        if u not in self._coadjoint:
            tables: dict[int, dict] = {g: {} for g in self.part_range(self.part_of(u))}
            terms: dict[tuple[int, int], tuple[int, int, int]] = {}
            groups, risers = self.dual_d()[1]
            for a in mask_bits(risers[None]):
                plus_a = self.plus_mask >> a & 1
                for pair, _, n in groups[a, None]:
                    low = pair & -pair
                    for ubit, ybit, c in ((low, pair ^ low, n), (pair ^ low, low, -n)):
                        table = tables.get(ubit.bit_length() - 1)
                        if table is not None:
                            rise = (self.plus_mask & ybit != 0) - plus_a
                            table.setdefault((a, rise), []).append(
                                terms.setdefault((ybit, c), (ybit, ybit - 1, c)))
            self._coadjoint.update((g, _derivation(t)) for g, t in tables.items())
        return self._coadjoint[u]


def _derivation(groups: dict[tuple[int, int], list[tuple[int, int, int]]]) -> Derivation:
    """(groups, risers), with each a's group (a, None) of all its terms: the
    (a, rise) list itself when a has one rise."""
    risers: dict[int | None, int] = {}
    by_a: dict[int, list] = {}
    for (a, rise), terms in groups.items():
        risers[rise] = risers.get(rise, 0) | 1 << a
        by_a.setdefault(a, []).append(terms)
    for a, lists in by_a.items():
        groups[a, None] = lists[0] if len(lists) == 1 else [t for ts in lists for t in ts]
    risers[None] = sum(1 << a for a in by_a)
    return groups, risers


def derivation_nums(m: LieModel, table: Derivation, nums: dict[int, int],
                    plus: int | None = None) -> dict[int, int]:
    """D of sum_mask nums[mask] xi^mask, for the derivation D of ``table``,
    as nonzero numerators over the ``dual_d`` den; with ``plus``, only its
    plus-count-``plus`` part.  Each factor reads one group: the one that
    reaches ``plus``, or the group of all its terms.
    D(xi^mask) = sum_a (-1)^t D(xi^a) ^ rest over the factors a, t of them
    below a, for d (odd) and for a coadjoint action (even, which moves the
    1-form D(xi^a) past t factors) alike."""
    groups, risers = table
    acc: dict[int, int] = {}
    for mask, n in nums.items():
        rise = None if plus is None else plus - (mask & m.plus_mask).bit_count()
        for a in mask_bits(mask & risers.get(rise, 0)):
            rest = mask ^ (1 << a)
            na = -n if (mask & ((1 << a) - 1)).bit_count() & 1 else n
            for image, odd, c in groups[a, rise]:
                if image & rest:
                    continue
                new_mask = rest | image
                if (odd & rest).bit_count() & 1:
                    acc[new_mask] = acc.get(new_mask, 0) - na * c
                else:
                    acc[new_mask] = acc.get(new_mask, 0) + na * c
    return acc if all(acc.values()) else {k: v for k, v in acc.items() if v}


def tangent_rep(m: LieModel, label: str = "tangent", lo: int = 0,
                hi: int | None = None) -> Rep:
    """g0 acting through the bracket on the minus gids [lo, hi), all of g- by
    default (the model-level tangent module); the block must be g0-invariant."""
    hi = m.dims[0] if hi is None else hi
    mats = []
    for u in m.part_range(Part.ZERO):
        mat = {}
        for j in range(lo, hi):
            for k, c in m.bracket_basis(u, j).items():
                if lo <= k < hi:
                    mat[(k - lo, j - lo)] = c
                elif k < m.dims[0]:
                    raise ValueError(f"minus block [{lo},{hi}) not g0-invariant")
        mats.append(mat)
    return Rep(label, mats, hi - lo)


class ValidationReport(Record):
    __slots__ = ("ok", "failures")

    def __init__(self, ok: bool, failures: list[dict] | None = None):
        self.ok = ok
        self.failures = [] if failures is None else failures

    def add(self, check: str, detail: str):
        self.ok = False
        self.failures.append({"check": check, "detail": detail})


def validate_model(m: LieModel) -> ValidationReport:
    """Check the Langlands splitting, then Jacobi as d^2 = 0 on the dual
    generators.

    The splitting (h = g0 + g+ a subalgebra, g+ an ideal of h, each block a
    g0-module) is one rule over the stored brackets [a,b], a before b: with
    a g0 factor the bracket lies in the other factor's part (in g0 when both
    are), and [g+,g+] lies in g+; [g-,g-] and [g-,g+] are free.  Each fault
    is reported once, in pair order, as ``[a,b] has X-component c*k`` with
    the stored coefficient c.  The coefficient of xi^i xi^j xi^k (i<j<k) in
    d(d xi^t), over the ``dual_d`` den squared, is -Jac(e_i, e_j, e_k)^t.

    Failures are data, not exceptions, so corrupted models can be probed in
    tests.
    """
    report = ValidationReport(ok=True)
    for (i, j), comp in sorted(m.brackets.items()):
        pa, pb = m.part_of(i), m.part_of(j)
        if pa == Part.MINUS and pb != Part.ZERO:
            continue
        home = pa if pb == Part.ZERO else pb
        for k, c in comp.items():
            if m.part_of(k) != home:
                report.add("langlands", f"[{m.names[i]},{m.names[j]}] has "
                           f"{m.part_of(k).name.lower()}-component {c}*{m.names[k]}")

    den, d = m.dual_d()
    jacobi: dict[int, dict[int, Fraction]] = {}
    for t in range(m.total):
        for mask, n in derivation_nums(m, d, derivation_nums(m, d, {1 << t: 1})).items():
            jacobi.setdefault(mask, {})[t] = Fraction(-n, den * den)
    for mask in sorted(jacobi, key=mask_bits):
        i, j, k = mask_bits(mask)
        report.add(
            "jacobi",
            f"jacobi({m.names[i]},{m.names[j]},{m.names[k]}) = "
            + " + ".join(f"{c}*{m.names[t]}" for t, c in jacobi[mask].items()),
        )
    return report


def validate_rep(m: LieModel, rep: Rep) -> ValidationReport:
    """Check rho([u,v]) = rho(u)rho(v) - rho(v)rho(u) over the g0 basis."""
    report = ValidationReport(ok=True)
    start = m.offsets[Part.ZERO]
    mats = rep.matrices
    rows = [row_index(mat) for mat in mats]
    for a in range(m.dims[Part.ZERO]):
        for b in range(a + 1, m.dims[Part.ZERO]):
            u, v = start + a, start + b
            expected = rep.act(m, m.bracket_basis(u, v))
            if sparse_commutator(mats[a], mats[b], rows[a], rows[b]) != expected:
                report.add(
                    "rep",
                    f"{rep.label}: commutator mismatch on ({m.names[u]},{m.names[v]})",
                )
    return report
