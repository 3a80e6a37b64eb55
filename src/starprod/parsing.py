"""Text form for sparse polynomials.

Grammar (ASCII, whitespace insignificant, generator indices 1-based):

    poly   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := generator | scalar
    generator := ('x'|'w') index ('^' uint)?
    scalar := number | imaginary | name | '(' scalarexpr ')'

Inside parentheses a full scalar expression with + - * / ^ is accepted, so
both the plain complex literal "(0+1i)" and parameterized coefficients such
as "(q-1)" or "(1/r-1)" parse.  Parameter names resolve through an optional
environment mapping names to ring scalars; the name "i" is reserved for the
imaginary unit.  Formatting is canonical: terms in graded order (highest
total degree first, then lexicographic), real coefficients signed through
the +/- separators, non-real coefficients parenthesized as "(re+imi)".
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterator, NamedTuple

from .poly import Polynomial
from .scalars import GaussRational, RationalQ, Ring, TruncSeries


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Token(NamedTuple):
    kind: str  # NUM, IMAG, NAME, OP, END
    text: str
    pos: int


_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[+\-*/^()])"
    r")"
)


def _tokenize(text: str) -> Iterator[Token]:
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_pos = pos + len(text[pos:]) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", bad_pos)
        pos = m.end()
        if m.group("num"):
            # a number glued to 'i' is an imaginary literal: 1i, 2.5i
            if pos < len(text) and text[pos] == "i" and (
                    pos + 1 == len(text) or not text[pos + 1].isalnum()):
                yield Token("IMAG", m.group("num"), m.start("num"))
                pos += 1
            else:
                yield Token("NUM", m.group("num"), m.start("num"))
        elif m.group("name"):
            yield Token("NAME", m.group("name"), m.start("name"))
        else:
            yield Token("OP", m.group("op"), m.start("op"))
    yield Token("END", "", len(text))


_GEN_RE = re.compile(r"^([xw])([0-9]+)$")


class _Parser:
    def __init__(self, text: str, ring: Ring, dim: int, kind: str, params):
        self.tokens = list(_tokenize(text))
        self.idx = 0
        self.ring = ring
        self.dim = dim
        self.kind = kind
        self.params = params or {}

    def peek(self) -> Token:
        return self.tokens[self.idx]

    def next(self) -> Token:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect_op(self, op: str):
        tok = self.next()
        if tok.kind != "OP" or tok.text != op:
            raise ParseError(f"expected {op!r}", tok.pos)

    # -- numbers ---------------------------------------------------------------

    def _number(self, text: str, pos: int):
        try:
            if self.ring.exact:
                return self.ring.coerce(Fraction(text))
            return self.ring.coerce(float(text) if ("." in text or "e" in text or "E" in text)
                                    else int(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad number {text!r}: {exc}", pos) from None

    # -- scalar expressions ------------------------------------------------------

    def scalar_expr(self):
        tok = self.peek()
        negate = False
        if tok.kind == "OP" and tok.text in "+-":
            self.next()
            negate = tok.text == "-"
        value = self.scalar_term()
        if negate:
            value = -value
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in "+-":
                self.next()
                rhs = self.scalar_term()
                value = value - rhs if tok.text == "-" else value + rhs
            else:
                return value

    def _inverse(self, value, pos: int):
        """1/value; a divisor without inverse is a ParseError at its position."""
        try:
            return self.ring.inverse(value)
        except ZeroDivisionError as exc:
            raise ParseError(f"cannot divide: {exc}", pos) from None

    def _divisor(self):
        """The scalar atom after '/', inverted."""
        pos = self.peek().pos
        return self._inverse(self.scalar_atom(), pos)

    def scalar_term(self):
        value = self.scalar_atom()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in "*/":
                self.next()
                value = value * (self._divisor() if tok.text == "/" else self.scalar_atom())
            else:
                return value

    def scalar_atom(self):
        tok = self.next()
        if tok.kind == "NUM":
            value = self._number(tok.text, tok.pos)
        elif tok.kind == "IMAG":
            value = self._number(tok.text, tok.pos) * self.ring.imaginary_unit
        elif tok.kind == "NAME":
            if tok.text == "i":
                value = self.ring.imaginary_unit
            elif tok.text in self.params:
                value = self.params[tok.text]
            elif _GEN_RE.match(tok.text):
                raise ParseError("generators are not allowed inside coefficient expressions", tok.pos)
            else:
                raise ParseError(f"unknown parameter {tok.text!r}", tok.pos)
        elif tok.kind == "OP" and tok.text == "(":
            value = self.scalar_expr()
            self.expect_op(")")
        else:
            raise ParseError("expected a scalar", tok.pos)
        return self._maybe_power(value, tok.pos)

    def _maybe_power(self, value, pos: int):
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "^":
            self.next()
            sign = 1
            tok = self.peek()
            if tok.kind == "OP" and tok.text == "-":
                self.next()
                sign = -1
            e = self.next()
            if e.kind != "NUM" or not e.text.isdigit():
                raise ParseError("expected an integer exponent", e.pos)
            n = sign * int(e.text)
            if n < 0:
                return self._inverse(value, pos) ** (-n)
            return value ** n
        return value

    # -- polynomial level ---------------------------------------------------------

    def parse(self) -> Polynomial:
        result = Polynomial.zero(self.ring, self.dim, self.kind)
        tok = self.peek()
        negate = False
        if tok.kind == "OP" and tok.text == "-":
            self.next()
            negate = True
        term = self.term()
        result = result + (-term if negate else term)
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in "+-":
                self.next()
                term = self.term()
                result = result + (-term if tok.text == "-" else term)
            elif tok.kind == "END":
                return result
            else:
                raise ParseError("expected '+', '-' or end of input", tok.pos)

    def term(self) -> Polynomial:
        coeff = self.ring.one
        expo = [0] * self.dim
        saw_factor = False
        while True:
            tok = self.peek()
            gen = _GEN_RE.match(tok.text) if tok.kind == "NAME" else None
            if gen:
                self.next()
                letter, index = gen.group(1), int(gen.group(2))
                if letter != self.kind:
                    raise ParseError(
                        f"generator {tok.text!r} does not match kind {self.kind!r}", tok.pos)
                if not 1 <= index <= self.dim:
                    raise ParseError(
                        f"generator index {index} out of range 1..{self.dim}", tok.pos)
                power = 1
                nxt = self.peek()
                if nxt.kind == "OP" and nxt.text == "^":
                    self.next()
                    e = self.next()
                    if e.kind != "NUM" or not e.text.isdigit():
                        raise ParseError("expected a non-negative integer exponent", e.pos)
                    power = int(e.text)
                expo[index - 1] += power
            else:
                coeff = coeff * self.scalar_atom()
            saw_factor = True
            nxt = self.peek()
            if nxt.kind == "OP" and nxt.text in "*/":
                self.next()
                if nxt.text == "/":
                    # rational coefficients like 3/2: next factor must be scalar
                    coeff = coeff * self._divisor()
                    nxt2 = self.peek()
                    if nxt2.kind == "OP" and nxt2.text == "*":
                        self.next()
                        continue
                    break
                continue
            break
        if not saw_factor:
            raise ParseError("empty term", self.peek().pos)
        return Polynomial(self.ring, self.dim, {tuple(expo): coeff}, self.kind)


def parse_poly(text: str, dim: int, ring: Ring, kind: str = "x", params=None) -> Polynomial:
    """Parse polynomial text into a Polynomial over ``ring``."""
    parser = _Parser(text, ring, dim, kind, params)
    return parser.parse()


# -- formatting ------------------------------------------------------------------


def _format_float(x: float, digits) -> str:
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    if digits is None:
        return repr(x)
    return f"{x:.{digits}g}"


def _real_value(c):
    """(is_real, float_or_fraction) for sign handling; None when not real."""
    if isinstance(c, GaussRational):
        return c.re if c.im == 0 else None
    if isinstance(c, complex):
        return c.real if c.imag == 0.0 else None
    return None


def _format_scalar(c, digits) -> tuple[str, bool]:
    """Return (text, negated): text of |c| if real negative, else of c."""
    real = _real_value(c)
    if real is not None:
        negated = real < 0
        mag = -real if negated else real
        if isinstance(mag, Fraction):
            return str(mag), negated
        return _format_float(mag, digits), negated
    if isinstance(c, GaussRational):
        sign = "+" if c.im >= 0 else "-"
        im = abs(c.im)
        # a fractional imaginary part needs an explicit product: 1/2i would
        # otherwise read as 1/(2i)
        im_text = f"{im}i" if im.denominator == 1 else f"{im}*i"
        return f"({c.re}{sign}{im_text})", False
    if isinstance(c, complex):
        sign = "+" if c.imag >= 0 else "-"
        return (f"({_format_float(c.real, digits)}{sign}"
                f"{_format_float(abs(c.imag), digits)}i)"), False
    if isinstance(c, TruncSeries):
        inner = "; ".join(_format_scalar(a, digits)[0] for a in c.coeffs)
        return f"(series {inner})", False
    if isinstance(c, RationalQ):
        def side(p):
            return "+".join(f"{_format_scalar(a, digits)[0]}q^{k}" for k, a in enumerate(p)) or "0"
        return f"(({side(c.num)})/({side(c.den)}))", False
    return str(c), False


def format_poly(f: Polynomial, digits=None) -> str:
    """Canonical text of a polynomial; ``digits`` limits float significant digits."""
    if f.is_zero():
        return "0"
    parts = []
    for K, c in f.sorted_terms():
        coeff_text, negated = _format_scalar(c, digits)
        factors = []
        for p, e in enumerate(K):
            if e == 0:
                continue
            name = f"{f.kind}{p + 1}"
            factors.append(name if e == 1 else f"{name}^{e}")
        if factors and coeff_text == "1":
            body = "*".join(factors)
        elif factors:
            body = coeff_text + "*" + "*".join(factors)
        else:
            body = coeff_text
        parts.append(("-" if negated else "+", body))
    sign0, body0 = parts[0]
    out = ("-" if sign0 == "-" else "") + body0
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out
