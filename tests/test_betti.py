"""The flat model G/P as an oracle: the cohomology of its basic cochains.

The basic cochains of total degree n are the g0-invariant ones with no g0
factor, the sum over p of ``invariant_basis(m, n, n - p, p)``.  Their
cohomology under the full d is the cohomology of the compact space G/P,
whose Betti numbers have closed formulas.  The check runs both halves of the
engine's g0 action as data: ``invariant_basis`` on g0's coadjoint tables,
and ``derivation_nums`` on d's table with no plus count.
"""

import pytest

import cartan_invariants as ci
from cartan_invariants.linalg import rank
from cartan_invariants.model import derivation_nums
from cartan_invariants.relations import find_relations, partitions_of
from test_charforms import RIEMANN_ROCH


def _basic_complex(m):
    """The dimension of the basic cochains of m in each degree n, and the
    rank of d on them."""
    d = m.dual_d()[1]
    basic = [[b.nums for p in range(n + 1) for b in ci.invariant_basis(m, n, n - p, p)]
             for n in range(m.dims[0] + m.dims[2] + 1)]
    return [len(vecs) for vecs in basic], [rank([derivation_nums(m, d, v) for v in vecs])
                                           for vecs in basic]


def _betti(m):
    """b_0, b_1, ..., b_top of the basic cochains of m under d."""
    dims, ranks = _basic_complex(m)
    return [dims[n] - ranks[n] - (ranks[n - 1] if n else 0) for n in range(len(dims))]


def _even(coefficients):
    """The polynomial in t whose t^(2k) coefficient is coefficients[k]."""
    out = []
    for c in coefficients:
        out += [c, 0]
    return out[:-1]


def _plus(a, b):
    n = max(len(a), len(b))
    return [x + y for x, y in zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))]


def _times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _gaussian_binomial(n, k):
    """[n choose k] as coefficients in q, by [n, k] = [n-1, k-1] + q^k [n-1, k]."""
    if k in (0, n):
        return [1]
    return _plus(_gaussian_binomial(n - 1, k - 1), [0] * k + _gaussian_binomial(n - 1, k))


def _lagrangian(n):
    out = [1]
    for i in range(1, n + 1):
        out = _times(out, [1] + [0] * (2 * i - 1) + [1])
    return out


def _quadric(n):
    """The Poincare polynomial of the quadric Q^n: one class in each even
    degree up to 2n, and a second in the middle when n is even."""
    out = _even([1] * (n + 1))
    if n % 2 == 0:
        out[n] += 1
    return out


# (family, parameters, Poincare polynomial of G/P as coefficients in t)
CASES = ([("projective", {"n": n}, _even([1] * (n + 1))) for n in (2, 3, 4, 6)]
         + [("grassmannian", {"p": p, "q": q}, _even(_gaussian_binomial(p + q, p)))
            for p, q in ((2, 2), (2, 3), (3, 3))]
         + [("lagrangian", {"n": n}, _lagrangian(n)) for n in (2, 3, 4)]
         + [("conformal", {"n": n}, _quadric(n)) for n in (3, 4, 5, 6)]
         + [("g2", {}, _even([1] * 6))])
EULER = {(family, tuple(params.items())): euler for family, params, _, euler in RIEMANN_ROCH}


@pytest.mark.parametrize("family, params, poincare", CASES,
                         ids=[f + "".join(f"-{v}" for v in p.values()) for f, p, _ in CASES])
def test_basic_cohomology_is_the_cohomology_of_the_flat_model(family, params, poincare):
    betti = _betti(ci.build_model(family, **params))
    assert betti == poincare
    euler = EULER.get((family, tuple(params.items())))
    assert euler is None or sum(betti) == euler


GRADED_1 = [case for case in CASES if case[0] != "g2"]


@pytest.mark.parametrize("family, params, poincare", GRADED_1,
                         ids=[f + "".join(f"-{v}" for v in p.values()) for f, p, _ in GRADED_1])
def test_strict_relations_meet_the_partition_bound(family, params, poincare):
    """On a |1|-graded model the Chern forms of the tangent module live in
    the basic cochains, where d is zero, so the p(k) Chern monomials of
    degree k span at most b_2k dimensions: at least p(k) - b_2k of them are
    strict relations."""
    m = ci.build_model(family, **params)
    tangent = m.reps["tangent"]
    for k in range(1, min(tangent.dim, 6) + 1):
        betti = poincare[2 * k] if 2 * k < len(poincare) else 0
        assert len(find_relations(m, tangent, k)) >= len(partitions_of(k)) - betti, k


def test_d_is_not_zero_on_the_basic_cochains_of_g2():
    """On the |1|-graded families d vanishes on basic cochains; on g2 it does
    not, so the Betti check runs the full d."""
    assert _basic_complex(ci.g2_flag()) == ([1, 0, 3, 4, 6, 6, 6, 4, 3, 0, 1],
                                            [0, 0, 2, 2, 3, 3, 2, 2, 0, 0, 0])


def test_every_riemann_roch_model_has_a_betti_case():
    assert set(EULER) <= {(family, tuple(params.items())) for family, params, _ in CASES}


def test_closed_formulas():
    assert _gaussian_binomial(4, 2) == [1, 1, 2, 1, 1]
    assert _gaussian_binomial(6, 3) == [1, 1, 2, 3, 3, 3, 3, 2, 1, 1]
    assert _lagrangian(2) == [1, 0, 1, 0, 1, 0, 1]
    assert _quadric(4) == [1, 0, 1, 0, 2, 0, 1, 0, 1]
