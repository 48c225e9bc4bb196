"""Rational literals, the coefficients of a model file."""

from fractions import Fraction as F

import pytest

from cartan_invariants.modelio import MAX_LITERAL_DIGITS, ModelSchemaError, model_from_obj


def parse_rational(literal):
    """The value of ``literal`` as the one bracket coefficient of a model."""
    obj = {"dims": [1, 0, 1], "names": ["w1", "u1"], "brackets": [[0, 1, [[0, literal]]]],
           "reps": {}}
    return model_from_obj(obj).brackets[(0, 1)][0]


def test_parse_rational():
    assert parse_rational("-3/4") == F(-3, 4)
    assert parse_rational("17") == F(17)
    for bad in ("1.5", "1e3", "a/b", "3/", "1/0", "-0/00"):
        with pytest.raises(ValueError):
            parse_rational(bad)


@pytest.mark.parametrize("bad", [3, 1.5, None, ["1"], F(1, 2)])
def test_parse_rational_rejects_non_strings(bad):
    with pytest.raises(ModelSchemaError, match="non-rational coefficient"):
        parse_rational(bad)


@pytest.mark.parametrize("bad", ["٣", "１２", "1/٣", "١٢/5"])
def test_parse_rational_takes_ascii_digits_only(bad):
    """Arabic-Indic and fullwidth digits are digits to ``int`` and
    ``Fraction``, but not in a literal."""
    with pytest.raises(ModelSchemaError, match="non-rational coefficient"):
        parse_rational(bad)


def test_parse_rational_caps_the_digits_and_quotes_a_prefix():
    wide = "7" * MAX_LITERAL_DIGITS
    assert parse_rational(f"-{wide}/{wide[1:]}9") == F(-int(wide), int(wide[1:] + "9"))
    for bad in (wide + "7", f"1/{wide}7", "7" * 5000):
        with pytest.raises(ModelSchemaError, match=f"over the cap of {MAX_LITERAL_DIGITS} "
                                                   "digits") as exc:
            parse_rational(bad)
        assert len(str(exc.value)) < 120
