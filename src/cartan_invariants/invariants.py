"""Invariant polynomials on g0 encoded as rational combinations of trace words.

A trace word (k1, ..., ks) stands for the function X -> tr(X^k1) ... tr(X^ks).
These span all the gl-type invariants needed here.  The multiplicative ones,
Chern and Todd, are degree parts of one series exp(sum_j a_j tr(X^j)), which
gives every invariant one canonical encoding and a single polarization rule.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

Word = tuple[int, ...]  # parts sorted descending


def _canon_word(parts) -> Word:
    w = tuple(sorted((int(p) for p in parts), reverse=True))
    if any(p <= 0 for p in w):
        raise ValueError("trace word parts must be positive")
    return w


class InvPoly:
    """Homogeneous linear combination of trace words."""

    __slots__ = ("terms", "degree")

    def __init__(self, terms: dict[Word, Fraction] | None = None):
        clean: dict[Word, Fraction] = {}
        for word, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                clean[_canon_word(word)] = clean.get(_canon_word(word), Fraction(0)) + c
        clean = {w: c for w, c in clean.items() if c}
        degs = {sum(w) for w in clean}
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous invariant polynomial: degrees {sorted(degs)}")
        self.terms = clean
        self.degree = degs.pop() if degs else 0

    @classmethod
    def one(cls) -> "InvPoly":
        return cls({(): Fraction(1)})

    @classmethod
    def trace_power(cls, k: int) -> "InvPoly":
        """The power-sum invariant X -> tr(X^k)."""
        return cls({(k,): Fraction(1)})

    @classmethod
    def _exp_power_sums(cls, k: int, a) -> "InvPoly":
        """The degree-k part E_k of exp(sum_j a(j) tr(X^j)), by the recursion
        n E_n = sum_{j=1..n} j a(j) E_{n-j} tr(X^j), over {word: coefficient}."""
        if k < 0:
            raise ValueError("negative degree")
        es = [{(): Fraction(1)}]
        for n in range(1, k + 1):
            acc: dict[Word, Fraction] = {}
            for j in range(1, n + 1):
                if c := j * a(j):
                    for w, e in es[n - j].items():
                        w = _canon_word(w + (j,))
                        acc[w] = acc.get(w, 0) + c * e
            es.append({w: c / n for w, c in acc.items() if c})
        return cls(es[k])

    @classmethod
    def chern(cls, k: int) -> "InvPoly":
        """Elementary-symmetric e_k, from exp(sum_j (-1)^(j-1) tr(X^j)/j): Newton's identities."""
        return cls._exp_power_sums(k, lambda j: Fraction((-1) ** (j - 1), j))

    @classmethod
    def todd(cls, k: int) -> "InvPoly":
        """Todd invariant td_k, the degree-k part of det(X/(1-e^-X)), from the
        log-Todd series exp(sum_j -B_j tr(X^j)/(j j!)) with B_1 = -1/2."""
        b = [Fraction(1)]  # the Bernoulli numbers B_0 .. B_k
        for n in range(1, k + 1):
            b.append(-sum(comb(n + 1, i) * x for i, x in enumerate(b)) / (n + 1))
        return cls._exp_power_sums(k, lambda j: -b[j] / (j * factorial(j)))

    @classmethod
    def chern_character(cls, j: int) -> "InvPoly":
        """ch_j as an invariant: tr(X^j)/j!."""
        return cls({(j,): Fraction(1, factorial(j))})

    def scale(self, c) -> "InvPoly":
        c = Fraction(c)
        return InvPoly({w: cc * c for w, cc in self.terms.items()})

    def __add__(self, other: "InvPoly") -> "InvPoly":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, Fraction(0)) + c
        return InvPoly(out)

    def __sub__(self, other: "InvPoly") -> "InvPoly":
        return self + other.scale(-1)

    def __mul__(self, other: "InvPoly") -> "InvPoly":
        out: dict[Word, Fraction] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = _canon_word(w1 + w2) if (w1 or w2) else ()
                out[w] = out.get(w, Fraction(0)) + c1 * c2
        return InvPoly(out)

    def __pow__(self, n: int) -> "InvPoly":
        if n < 0:
            raise ValueError("negative power")
        out = InvPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, InvPoly) and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "InvPoly(0)"
        bits = []
        for w, c in sorted(self.terms.items(), reverse=True):
            word = "*".join(f"tr{k}" for k in w) or "1"
            bits.append(f"{c}*{word}")
        return "InvPoly(" + " + ".join(bits) + ")"


# -- the `--poly` mini-grammar -------------------------------------------------
#
#   expr   := term (('+' | '-') term)*
#   term   := factor ('*' factor)*
#   factor := atom ('^' INT)?
#   atom   := INT | 'c' INT | 'ch' INT | '(' expr ')'
#
# Every parsed polynomial must be homogeneous in the Chern grading
# (deg c_k = deg ch_k = k); integers are degree 0.  Indices, exponents and
# product degrees are capped at MAX_DEGREE before the product is formed, so
# parsing stays bounded (c16 has 231 trace words; a degree-k Chern form needs
# k generators in each of g- and g+).  Integers are capped at MAX_DIGITS digits
# as read, and coefficients' numerators and denominators after each product and power.

MAX_DEGREE = 16
MAX_DIGITS = 1000


class PolyParseError(ValueError):
    pass


def _tokenize(text: str) -> list[str]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*^()":
            tokens.append(ch)
            i += 1
        elif ch.isdigit() or ch == "c":
            # an integer, or 'c' or 'ch' and the integer index after it
            start = j = i + (2 if text.startswith("ch", i) else ch == "c")
            while j < n and text[j].isdigit():
                j += 1
            if j == start:
                raise PolyParseError(f"expected index after {text[i:start]!r}")
            if j - start > MAX_DIGITS:
                raise PolyParseError(f"an integer of {j - start} digits exceeds the cap of "
                                     f"{MAX_DIGITS} digits")
            tokens.append(text[i:j])
            i = j
        else:
            raise PolyParseError(f"unexpected character {ch!r}")
    return tokens


def _cap(value: int, what: str) -> int:
    if value > MAX_DEGREE:
        raise PolyParseError(f"{what} {value} exceeds the cap {MAX_DEGREE}")
    return value


def _cap_digits(poly: InvPoly) -> InvPoly:
    bound = 10 ** MAX_DIGITS
    if any(max(abs(c.numerator), c.denominator) >= bound for c in poly.terms.values()):
        raise PolyParseError(f"a coefficient exceeds the cap of {MAX_DIGITS} digits")
    return poly


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise PolyParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expr(self) -> InvPoly:
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
        acc = self.term().scale(sign)
        while self.peek() in ("+", "-"):
            op = self.take()
            t = self.term()
            acc = acc + (t.scale(-1) if op == "-" else t)
        return acc

    def term(self) -> InvPoly:
        acc = self.factor()
        while self.peek() == "*":
            self.take()
            f = self.factor()
            _cap(acc.degree + f.degree, "degree")
            acc = _cap_digits(acc * f)
        return acc

    def factor(self) -> InvPoly:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            tok = self.take()
            if not tok.isdigit():
                raise PolyParseError(f"expected integer exponent, got {tok!r}")
            _cap(int(tok), "exponent")
            _cap(base.degree * int(tok), "degree")
            base = _cap_digits(base ** int(tok))
        return base

    def atom(self) -> InvPoly:
        tok = self.take()
        if tok == "(":
            inner = self.expr()
            if self.take() != ")":
                raise PolyParseError("missing ')'")
            return inner
        if tok.isdigit():
            return InvPoly.one().scale(int(tok))
        if tok.startswith("ch"):
            return InvPoly.chern_character(_cap(int(tok[2:]), "index"))
        if tok.startswith("c"):
            return InvPoly.chern(_cap(int(tok[1:]), "index"))
        raise PolyParseError(f"unexpected token {tok!r}")


def parse_poly(text: str) -> InvPoly:
    """Parse the CLI polynomial grammar into a trace-word invariant."""
    parser = _Parser(_tokenize(text))
    try:
        poly = parser.expr()
    except PolyParseError:
        raise
    except RecursionError:
        raise PolyParseError("polynomial nested too deeply")
    except ValueError as e:  # e.g. inhomogeneous sums
        raise PolyParseError(str(e))
    if parser.peek() is not None:
        raise PolyParseError(f"trailing input at token {parser.peek()!r}")
    if poly.degree == 0:
        raise PolyParseError("polynomial must have positive Chern degree")
    return poly
