"""Chern forms by the Faddeev-LeVerrier recursion: the reference that
``cartan_invariants.chern_forms`` is checked against.

The package evaluates c_k = tau^k e_k(A) as a polarization of the trace
words of e_k; this recursion reaches the same forms through full matrix
products instead, and shares with the package only the Atiyah matrix and
``MatrixForm`` arithmetic, which the tests check against a naive product.
"""

from fractions import Fraction as F

import cartan_invariants as ci
from cartan_invariants.charforms import MatrixForm
from cartan_invariants.forms import Form


def leverrier_chern(m, rep, k_max):
    """c_1 .. c_k_max of ``rep``: G_k = A B_{k-1}, e_k = tr(G_k)/k,
    B_k = e_k I - G_k with B_0 = I, and c_k = tau^k e_k."""
    n = rep.dim
    a = ci.atiyah_form(m, rep)
    b = MatrixForm([[Form.unit() if i == j else Form.zero() for j in range(n)]
                    for i in range(n)])
    out = []
    for k in range(1, k_max + 1):
        g = a.matwedge(b)
        ek = g.trace().scale(F(1, k))
        out.append(ek.tau_shift(k))
        b = MatrixForm([[(ek if i == j else Form.zero()) - g.grid[i][j]
                         for j in range(n)] for i in range(n)])
    return out
