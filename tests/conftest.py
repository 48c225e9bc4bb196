from fractions import Fraction as F

import pytest
from hypothesis import settings

from cartan_invariants.forms import Form, _form
from cartan_invariants.model import LieModel, derivation_nums

# Every run draws the same examples, so a failure found once is found again.
settings.register_profile("replayable", derandomize=True)
settings.load_profile("replayable")


def sl2_model() -> LieModel:
    """The textbook sl(2) table {f in g-, h in g0, e in g+} with
    [h,e] = 2e, [h,f] = -2f, [e,f] = h.  Global order f < h < e."""
    brackets = {
        (0, 1): {0: F(2)},    # [f,h] = 2f
        (0, 2): {1: F(-1)},   # [f,e] = -h
        (1, 2): {2: F(2)},    # [h,e] = 2e
    }
    return LieModel((1, 1, 1), ["f*", "h*", "e*"], brackets,
                    meta={"family": "sl2-hand", "params": {}})


def sl2_corrupted() -> LieModel:
    """Same generators but with [e,f] = e injected, breaking Jacobi."""
    brackets = {
        (0, 1): {0: F(2)},
        (0, 2): {2: F(-1)},   # [f,e] = -e, i.e. [e,f] = e
        (1, 2): {2: F(2)},
    }
    return LieModel((1, 1, 1), ["f*", "h*", "e*"], brackets)


def coadjoint(m: LieModel, u: int, form: Form) -> Form:
    """The coadjoint action of generator u on a form: ``derivation_nums`` of
    u's table, over the ``dual_d`` den."""
    nums = derivation_nums(m, m.coadjoint_table(u), form.nums)
    return _form(nums, form.den * m.dual_d()[0], form.tau)


@pytest.fixture
def sl2():
    return sl2_model()
