"""Chevalley basis of a simple Lie algebra from its Cartan data, and the g2
flag model assembled from it: an oracle for ``models.g2_flag``, which builds
the same model from matrices on the 7-dimensional module.

Roots are integer coordinate vectors over the simple roots, generated by the
string-closure algorithm.  Structure constants N_{a,b} have |N| = p+1 with
p the length of the a-string down from b; signs are fixed by setting the
extraspecial pairs positive and propagating through two identities that hold
in the convention [e_r, e_{-r}] = r-coroot:

  * for roots x+y+z = 0:   N_{x,y}/(z,z) = N_{y,z}/(x,x) = N_{z,x}/(y,y)
  * Jacobi on (e_{a1}, e_{b1}, e_{-a}) when a1+b1 = a+b, giving
      N_{a1,b1} N_{a1+b1,-a} + N_{b1,-a} N_{b1-a,a1} + N_{-a,a1} N_{a1-a,b1} = 0.

Any consistent sign choice yields an isomorphic algebra; the downstream
model validation re-checks Jacobi exhaustively, and the propagation asserts
|N| = p+1 at every step.
"""

from __future__ import annotations

from fractions import Fraction

from cartan_invariants.model import BracketTable, LieModel, tangent_rep
from cartan_invariants.models import _names

Root = tuple[int, ...]


class RootSystem:
    def __init__(self, cartan_rows: list[list[int]], lengths: list[Fraction]):
        """``cartan_rows[i][j]`` = <alpha_j, alpha_i-coroot>; ``lengths[i]`` =
        (alpha_i, alpha_i).  The bilinear form follows from
        (alpha_i, alpha_j) = cartan_rows[i][j] * lengths[i] / 2."""
        self.rank = len(cartan_rows)
        self.lengths = [Fraction(x) for x in lengths]
        self.b = [[Fraction(0)] * self.rank for _ in range(self.rank)]
        for i in range(self.rank):
            for j in range(self.rank):
                self.b[i][j] = Fraction(cartan_rows[i][j]) * self.lengths[i] / 2
        for i in range(self.rank):
            for j in range(self.rank):
                if self.b[i][j] != self.b[j][i]:
                    raise ValueError("Cartan data is not symmetrizable as given")
        self.positive = self._generate()
        self.positive_set = set(self.positive)
        self.all_roots = set(self.positive) | {self.neg(r) for r in self.positive}

    @staticmethod
    def neg(r: Root) -> Root:
        return tuple(-x for x in r)

    @staticmethod
    def add(r: Root, s: Root) -> Root:
        return tuple(x + y for x, y in zip(r, s))

    @staticmethod
    def sub(r: Root, s: Root) -> Root:
        return tuple(x - y for x, y in zip(r, s))

    def inner(self, r: Root, s: Root) -> Fraction:
        acc = Fraction(0)
        for i in range(self.rank):
            if not r[i]:
                continue
            for j in range(self.rank):
                if s[j]:
                    acc += r[i] * s[j] * self.b[i][j]
        return acc

    def pairing(self, r: Root, s: Root) -> Fraction:
        """<r, s-coroot> = 2 (r,s)/(s,s)."""
        return 2 * self.inner(r, s) / self.inner(s, s)

    def is_root(self, r: Root) -> bool:
        return r in self.all_roots

    def height(self, r: Root) -> int:
        return sum(r)

    def _generate(self) -> list[Root]:
        simple = [tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank)]
        known: set[Root] = set(simple)
        frontier = list(simple)
        while frontier:
            nxt = []
            for r in frontier:
                for i, alpha in enumerate(simple):
                    down = 0
                    probe = self.sub(r, alpha)
                    while probe in known or probe == tuple([0] * self.rank):
                        if probe == tuple([0] * self.rank):
                            break
                        down += 1
                        probe = self.sub(probe, alpha)
                    up = down - self.pairing(r, alpha)
                    if up >= 1:
                        cand = self.add(r, alpha)
                        if cand not in known:
                            known.add(cand)
                            nxt.append(cand)
            frontier = nxt
        return sorted(known, key=lambda r: (self.height(r), r))

    def string_down(self, a: Root, b: Root) -> int:
        """p = max{k >= 0 : b - k a is a root}."""
        p = 0
        probe = self.sub(b, a)
        while probe in self.all_roots:
            p += 1
            probe = self.sub(probe, a)
        return p


class ChevalleyBasis:
    """Structure constants on h-coroots and root vectors e_r."""

    def __init__(self, roots: RootSystem):
        self.roots = roots
        self._pos_n: dict[tuple[Root, Root], Fraction] = {}
        self._fill_positive()

    # -- positive-pair table ------------------------------------------------

    def _order(self, r: Root) -> tuple:
        return (self.roots.height(r), r)

    def _extraspecial(self, gamma: Root) -> tuple[Root, Root]:
        cands = []
        for a in self.roots.positive:
            b = self.roots.sub(gamma, a)
            if b in self.roots.positive_set and self._order(a) < self._order(b):
                cands.append((a, b))
        if not cands:
            raise ValueError(f"no special pair for {gamma}")
        return min(cands, key=lambda ab: self._order(ab[0]))

    def _fill_positive(self):
        rr = self.roots
        for gamma in rr.positive:
            if rr.height(gamma) < 2:
                continue
            a1, b1 = self._extraspecial(gamma)
            self._pos_n[(a1, b1)] = Fraction(rr.string_down(a1, b1) + 1)
            for a in rr.positive:
                b = rr.sub(gamma, a)
                if b not in rr.positive_set or self._order(a) >= self._order(b):
                    continue
                if (a, b) == (a1, b1):
                    continue
                # Jacobi on (e_a1, e_b1, e_-a); the first term contains
                # N(gamma, -a) = -(b,b) N(a,b) / (gamma,gamma) by the cyclic
                # rule, everything else reduces to lower height.
                t = Fraction(0)
                d1 = rr.sub(b1, a)
                if rr.is_root(d1):
                    t += self.n(b1, rr.neg(a)) * self.n(d1, a1)
                d2 = rr.sub(a1, a)
                if rr.is_root(d2):
                    t += self.n(rr.neg(a), a1) * self.n(d2, b1)
                val = rr.inner(gamma, gamma) * t / (
                    rr.inner(b, b) * self._pos_n[(a1, b1)]
                )
                expect = rr.string_down(a, b) + 1
                if abs(val) != expect:
                    raise AssertionError(
                        f"sign propagation produced |N|={val} for {a}+{b}, expected {expect}"
                    )
                self._pos_n[(a, b)] = val

    # -- general N ------------------------------------------------------------

    def n(self, r: Root, s: Root) -> Fraction:
        """N_{r,s} for any roots with r+s a root; 0 when r+s is not a root."""
        rr = self.roots
        total = rr.add(r, s)
        if total not in rr.all_roots:
            return Fraction(0)
        r_pos = r in rr.positive_set
        s_pos = s in rr.positive_set
        if r_pos and s_pos:
            if self._order(r) < self._order(s):
                return self._pos_n[(r, s)]
            return -self._pos_n[(s, r)]
        if not r_pos and not s_pos:
            return -self.n(rr.neg(r), rr.neg(s))
        if not r_pos:
            return -self.n(s, r)
        # r positive, s negative
        beta = rr.neg(s)
        delta = rr.sub(r, beta)
        if delta in rr.positive_set:
            # r = beta + delta: N(r,-beta)/(d,d) = N(-beta,-delta)/(r,r)
            return -rr.inner(delta, delta) * self.n(beta, delta) / rr.inner(r, r)
        eps = rr.sub(beta, r)
        # beta = r + eps: N(r,-beta)/(e,e) = N(-beta,eps)/(r,r) = N(eps,r)/(b,b)
        return rr.inner(eps, eps) * self.n(eps, r) / rr.inner(beta, beta)

    def coroot(self, r: Root) -> list[Fraction]:
        """Coordinates of the coroot of r over the simple coroots."""
        rr = self.roots
        rlen = rr.inner(r, r)
        return [Fraction(r[i]) * rr.lengths[i] / rlen for i in range(rr.rank)]

    def cartan_pairing(self, r: Root, i: int) -> Fraction:
        """<r, alpha_i-coroot>: eigenvalue of ad(h_i) on e_r."""
        simple = tuple(int(i == j) for j in range(self.roots.rank))
        return self.roots.pairing(r, simple)


def g2_root_system() -> RootSystem:
    """G2 with alpha_1 short ((a1,a1) = 2) and alpha_2 long ((a2,a2) = 6)."""
    return RootSystem([[2, -3], [-1, 2]], [Fraction(2), Fraction(6)])


def g2_chevalley_flag() -> LieModel:
    """The five-dimensional g2 flag model (crossed short root).

    Grading by the coefficient of the short simple root alpha: the minus part
    collects the roots with negative alpha-coefficient in the block order
    (-3a-b, -3a-2b | -2a-b | -a, -a-b); the zero part is spanned by two
    Cartan combinations dual to the weights of the grade -1 pair plus the
    long-root vectors; the plus part mirrors the minus order.  The graded
    tangent module is the block-diagonal g0-action on g-.
    """
    rs = g2_root_system()
    cb = ChevalleyBasis(rs)

    minus_roots = [(-3, -1), (-3, -2), (-2, -1), (-1, 0), (-1, -1)]
    plus_roots = [(1, 0), (1, 1), (2, 1), (3, 1), (3, 2)]
    # h1, h2 are the Cartan elements dual to the roots of the grade -1
    # generators (-a and -a-b): coroot coordinates (-1,-1) and (-1,-2).
    h_combos = [(Fraction(-1), Fraction(-1)), (Fraction(-1), Fraction(-2))]
    zero_root_vectors = [(0, 1), (0, -1)]

    gens: list[tuple[str, object]] = []
    for r in minus_roots:
        gens.append(("root", r))
    for h in h_combos:
        gens.append(("cartan", h))
    for r in zero_root_vectors:
        gens.append(("root", r))
    for r in plus_roots:
        gens.append(("root", r))

    root_pos = {payload: i for i, (kind, payload) in enumerate(gens) if kind == "root"}
    # express a coroot-coordinate vector over (h1, h2); the basis matrix
    # [[-1,-1],[-1,-2]] has inverse [[-2,1],[1,-1]].
    def h_coords(coroot: list[Fraction]) -> dict[int, Fraction]:
        c1, c2 = coroot
        a = -2 * c1 + c2
        b = c1 - c2
        out = {}
        if a:
            out[5] = a  # gid of h1
        if b:
            out[6] = b  # gid of h2
        return out

    def pairing_with_combo(r, combo) -> Fraction:
        return combo[0] * cb.cartan_pairing(r, 0) + combo[1] * cb.cartan_pairing(r, 1)

    total = len(gens)
    brackets: BracketTable = {}
    for i in range(total):
        for j in range(i + 1, total):
            ki, pi = gens[i]
            kj, pj = gens[j]
            comp: dict[int, Fraction] = {}
            if ki == "cartan" and kj == "cartan":
                pass
            elif ki == "cartan":
                c = pairing_with_combo(pj, pi)
                if c:
                    comp[j] = c
            elif kj == "cartan":
                c = -pairing_with_combo(pi, pj)
                if c:
                    comp[i] = c
            else:
                total_root = rs.add(pi, pj)
                if all(x == 0 for x in total_root):
                    comp = h_coords(cb.coroot(pi))
                elif total_root in rs.all_roots:
                    nval = cb.n(pi, pj)
                    if nval:
                        comp[root_pos[total_root]] = nval
            comp = {k: c for k, c in comp.items() if c}
            if comp:
                brackets[(i, j)] = comp

    dims = (5, 4, 5)
    meta = {"family": "g2_flag", "params": {}}
    m = LieModel(dims, _names(dims), brackets, reps={}, meta=meta)
    m.reps["graded-tangent"] = tangent_rep(m, "graded-tangent")
    return m
