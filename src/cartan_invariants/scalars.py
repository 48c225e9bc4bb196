"""Parsing of exact rational literals."""

from __future__ import annotations

import re
from fractions import Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse a decimal-free rational string such as ``-3/4`` or ``17``."""
    if not isinstance(text, str):
        raise ValueError(f"not a rational literal: {text!r} (expected a string)")
    if not _RATIONAL_RE.match(text.strip()):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational literal: {text!r}")
