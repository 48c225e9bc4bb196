from fractions import Fraction as F

import pytest

from cartan_invariants.scalars import parse_rational


def test_parse_rational():
    assert parse_rational("-3/4") == F(-3, 4)
    assert parse_rational("17") == F(17)
    for bad in ("1.5", "1e3", "a/b", "3/", "1/0", "-0/00"):
        with pytest.raises(ValueError):
            parse_rational(bad)


@pytest.mark.parametrize("bad", [3, 1.5, None, ["1"], F(1, 2)])
def test_parse_rational_rejects_non_strings(bad):
    with pytest.raises(ValueError, match="not a rational literal"):
        parse_rational(bad)
